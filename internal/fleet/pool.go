// Package fleet is the multi-node serving control plane: the front
// tier's worker registry (register + heartbeat liveness leases), the
// dispatch router that spreads traffic across live workers with
// tenant-affine consistent routing and transparent failover, the
// rolling rule-table push that moves the whole fleet to a new fenced
// table version one worker at a time, and the worker-side Agent that
// maintains membership from the other end of the wire.
//
// The paper's scale-out setting — multiple instantiations of each
// version behind a load balancer — is served for real here: ttworker nodes
// bootstrap from the snapshot-shipping endpoint (no pre-deployed
// corpus), serve the existing dispatch wire shapes, and the front tier
// routes around failures so a worker kill mid-run loses no requests.
package fleet

import (
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/stats"
)

// Options parameterizes the front tier's fleet pool. The zero value is
// usable: 3s leases, autoscale targeting 8 in-flight dispatches per
// worker between 1 and 16 replicas.
type Options struct {
	// Lease is the liveness lease granted on register/heartbeat; a
	// worker that misses it leaves rotation (0 = 3s).
	Lease time.Duration
	// TargetInFlight is the autoscale hint's per-worker in-flight
	// budget (0 = 8).
	TargetInFlight int
	// MinReplicas / MaxReplicas clamp the autoscale hint (0 = 1 / 16).
	MinReplicas int
	MaxReplicas int
	// Now overrides the clock (tests pin lease expiry with it).
	Now func() time.Time
	// Logf, when set, receives control-plane events (joins, expiries,
	// rollout steps).
	Logf func(format string, args ...any)
}

// latencyRingSize bounds the sliding window behind per-member and
// per-tier p95 estimates.
const latencyRingSize = 256

// member is one registered worker at one base URL (a worker that moves
// re-registers as a new member). The dispatch path reaches members
// through the routing snapshot, without Pool.mu: what it reads is fixed
// at registration or atomic, and the free list of keep-alive connections
// has its own lock. Pool.mu guards only the latency accounting.
type member struct {
	name    string
	nameHdr []string // {name}, shared by every relayed X-Toltiers-Worker
	base    string
	addr    string // host:port the proxy dials
	reqHead string // "POST <base path>", opening every proxied request
	reqHost string // from " HTTP/1.1" through the Host and Content-Type lines

	version atomic.Int64
	expires atomic.Int64 // lease end, UnixNano

	requests, failures, failedOver, inflight atomic.Int64

	connMu sync.Mutex
	idle   []*workerConn
	gone   bool // left the pool: returning connections are closed

	lat  stats.Stream
	ring stats.Ring
}

func newMember(name, base string) *member {
	m := &member{name: name, nameHdr: []string{name}, base: base, ring: stats.NewRing(latencyRingSize)}
	if u, err := url.Parse(base); err == nil && u.Host != "" {
		m.addr = u.Host
		if u.Port() == "" {
			m.addr = net.JoinHostPort(u.Hostname(), "80")
		}
		m.reqHead = "POST " + strings.TrimRight(u.EscapedPath(), "/")
		m.reqHost = " HTTP/1.1\r\nHost: " + u.Host + "\r\nContent-Type: " + api.ContentTypeJSON + "\r\n"
	} // else addr stays empty: every dial fails, and the dispatch fails over
	return m
}

func (m *member) live(now time.Time) bool { return now.UnixNano() <= m.expires.Load() }

// tierKey labels a request's tier for autoscale accounting, from the
// same annotation headers §IV-A dispatch resolves; the zero key is a
// request without a Tolerance.
type tierKey struct{ obj, tol string }

// tierObs accumulates router-observed wall latency per requested tier,
// plus the largest deadline that tier's traffic asked for — the two
// inputs of the p95-vs-deadline autoscale factor.
type tierObs struct {
	ring       stats.Ring
	deadlineMS float64
}

// Pool is the front tier's fleet state: the worker registry, the
// routing/failover accounting, the rule-table version fence, and the
// rolling-push machinery.
type Pool struct {
	opts   Options
	client *http.Client // table pushes only; dispatches ride workerConns

	// routes is the name-sorted member list the dispatch path reads:
	// copy-on-write, republished under mu whenever the set changes.
	routes            atomic.Pointer[[]*member]
	rr                atomic.Uint64
	proxied, fallback atomic.Int64

	mu      sync.Mutex
	members map[string]*member
	version int64
	tiers   map[tierKey]*tierObs
	rollout *rollout
}

// NewPool builds the front tier's fleet pool.
func NewPool(opts Options) *Pool {
	p := &Pool{
		opts:    opts,
		client:  &http.Client{Timeout: 30 * time.Second},
		members: make(map[string]*member),
		tiers:   make(map[tierKey]*tierObs),
	}
	p.publishLocked()
	return p
}

func (p *Pool) now() time.Time {
	if p.opts.Now != nil {
		return p.opts.Now()
	}
	return time.Now()
}

func (p *Pool) lease() time.Duration {
	if p.opts.Lease > 0 {
		return p.opts.Lease
	}
	return 3 * time.Second
}

func (p *Pool) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// Close cancels any rolling push in flight and closes the idle worker
// connections.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rollout != nil && !p.rollout.done {
		p.rollout.cancel()
	}
	for _, m := range p.members {
		m.retire()
	}
}

// Version returns the fleet's fenced rule-table version.
func (p *Pool) Version() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.version
}

// SetVersion seeds the fence at boot (from a restored snapshot, or 1
// for a fresh fleet). It never lowers an already-promoted version.
func (p *Pool) SetVersion(v int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v > p.version {
		p.version = v
	}
}

// Register grants (or renews) a worker's lease. Resync is set when the
// worker's tables are not at the fenced version — it joined
// mid-promotion or across a front-tier restart — telling it to re-pull
// the snapshot before its version label can be trusted.
func (p *Pool) Register(name, base string, ver int64) api.FleetRegisterResponse {
	now := p.now()
	lease := p.lease()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pruneLocked(now)
	m := p.members[name]
	if m != nil && m.base != base {
		p.dropLocked(m) // moved: its connections lead to the old address
		m = nil
	}
	if m == nil {
		m = newMember(name, base)
		p.members[name] = m
		defer p.publishLocked() // with the lease below in place, still under mu
		p.logf("fleet: worker %s joined at %s (table v%d)", name, base, ver)
	}
	m.version.Store(ver)
	m.expires.Store(now.Add(lease).UnixNano())
	return api.FleetRegisterResponse{
		LeaseMS:      lease.Milliseconds(),
		TableVersion: p.version,
		Resync:       ver != p.version,
	}
}

// Heartbeat renews a lease. Known=false means the pool no longer holds
// it (expired, evicted, or a front-tier restart) and the worker must
// re-register.
func (p *Pool) Heartbeat(name string, ver int64) api.FleetHeartbeatResponse {
	now := p.now()
	lease := p.lease()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pruneLocked(now)
	m := p.members[name]
	if m == nil {
		return api.FleetHeartbeatResponse{Known: false, TableVersion: p.version}
	}
	m.expires.Store(now.Add(lease).UnixNano())
	m.version.Store(ver)
	return api.FleetHeartbeatResponse{
		Known:        true,
		LeaseMS:      lease.Milliseconds(),
		TableVersion: p.version,
	}
}

// Deregister removes a worker (graceful shutdown path).
func (p *Pool) Deregister(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m := p.members[name]; m != nil {
		p.dropLocked(m)
		p.publishLocked()
		p.logf("fleet: worker %s deregistered", name)
	}
}

// dropLocked takes m out of the registry and closes its idle
// connections. Callers hold p.mu and publish the new routes.
func (p *Pool) dropLocked(m *member) {
	delete(p.members, m.name)
	m.retire()
}

// publishLocked republishes the routing snapshot. Callers hold p.mu.
func (p *Pool) publishLocked() {
	routes := make([]*member, 0, len(p.members))
	for _, m := range p.members {
		routes = append(routes, m)
	}
	sort.Slice(routes, func(i, j int) bool { return routes[i].name < routes[j].name })
	p.routes.Store(&routes)
}

// pruneLocked drops expired leases. Every control-plane call runs it;
// the dispatch path does not wait for it, it skips an expired member on
// sight. Callers hold p.mu.
func (p *Pool) pruneLocked(now time.Time) {
	pruned := false
	for name, m := range p.members {
		if !m.live(now) {
			p.dropLocked(m)
			pruned = true
			p.logf("fleet: worker %s lease expired; removed from rotation", name)
		}
	}
	if pruned {
		p.publishLocked()
	}
}

// HasLive reports whether any worker holds a current lease.
func (p *Pool) HasLive() bool {
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pruneLocked(now)
	return len(p.members) > 0
}

// rendezvous scores (tenant, worker) for highest-random-weight
// routing: each tenant ranks the workers in its own stable
// pseudo-random order, so a tenant sticks to one worker while tenants
// collectively spread across the fleet, and a membership change only
// moves the tenants that ranked the changed worker first. The score is
// FNV-1a over tenant, a zero byte, worker.
func rendezvous(tenant, worker string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(tenant); i++ {
		h = (h ^ uint64(tenant[i])) * prime
	}
	h *= prime // the zero byte
	for i := 0; i < len(worker); i++ {
		h = (h ^ uint64(worker[i])) * prime
	}
	return h
}

// candidates fills buf, the caller's empty scratch, with the live
// workers one dispatch may try, at most failoverAttempts of them, in
// routing-preference order: the highest rendezvous scores for a named
// tenant, the next stretch of the round-robin over the name-sorted list
// for anonymous traffic. It reads the routing snapshot and takes no lock.
func (p *Pool) candidates(tenant string, buf []*member) []*member {
	routes, now := *p.routes.Load(), p.now()
	if tenant == "" && len(routes) > 0 {
		start := int((p.rr.Add(1) - 1) % uint64(len(routes)))
		for i := 0; i < len(routes) && len(buf) < failoverAttempts; i++ {
			if m := routes[(start+i)%len(routes)]; m.live(now) {
				buf = append(buf, m)
			}
		}
		return buf
	}
	var scores [failoverAttempts]uint64
	for _, m := range routes {
		if !m.live(now) {
			continue
		}
		// Insert by descending score; ties keep the snapshot's name order.
		at, sc := len(buf), rendezvous(tenant, m.name)
		for at > 0 && scores[at-1] < sc {
			at--
		}
		if at == failoverAttempts {
			continue
		}
		if len(buf) < failoverAttempts {
			buf = append(buf, nil)
		}
		copy(buf[at+1:], buf[at:])
		copy(scores[at+1:], scores[at:])
		buf[at], scores[at] = m, sc
	}
	return buf
}

// observe folds one completed proxy round trip into the member's and
// the tier's accounting.
func (p *Pool) observe(m *member, tier tierKey, deadlineMS, wallMS float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m.lat.Add(wallMS)
	m.ring.Add(wallMS)
	if tier == (tierKey{}) {
		return
	}
	to := p.tiers[tier]
	if to == nil {
		to = &tierObs{ring: stats.NewRing(latencyRingSize)}
		p.tiers[tier] = to
	}
	to.ring.Add(wallMS)
	if deadlineMS > to.deadlineMS {
		to.deadlineMS = deadlineMS
	}
}

// Status assembles GET /fleet: live workers, the fence, the latest
// rollout, and the autoscale hint.
func (p *Pool) Status() api.FleetStatus {
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pruneLocked(now)
	st := api.FleetStatus{
		TableVersion:  p.version,
		LeaseMS:       p.lease().Milliseconds(),
		Proxied:       p.proxied.Load(),
		LocalFallback: p.fallback.Load(),
	}
	routes := *p.routes.Load()
	var inflight int64
	for _, m := range routes {
		n := m.inflight.Load()
		inflight += n
		st.Workers = append(st.Workers, api.FleetWorker{
			Name:             m.name,
			BaseURL:          m.base,
			TableVersion:     m.version.Load(),
			Requests:         m.requests.Load(),
			Failures:         m.failures.Load(),
			FailedOver:       m.failedOver.Load(),
			InFlight:         n,
			MeanLatencyMS:    m.lat.Mean,
			P95LatencyMS:     m.ring.Quantile(0.95),
			LeaseRemainingMS: time.Duration(m.expires.Load() - now.UnixNano()).Milliseconds(),
		})
	}
	if ro := p.rollout; ro != nil {
		st.Rollout = &api.FleetRollout{
			Version: ro.version,
			Done:    ro.done,
			Pushed:  append([]string(nil), ro.pushed...),
			Evicted: append([]string(nil), ro.evicted...),
			Error:   ro.err,
		}
	}
	st.Autoscale = p.autoscaleLocked(len(routes), inflight)
	return st
}

// autoscaleLocked derives the desired-replica hint: enough workers to
// keep per-worker in-flight under TargetInFlight AND to pull the worst
// tier's observed p95 back under the deadline its traffic requested.
// Callers hold p.mu.
func (p *Pool) autoscaleLocked(live int, inflight int64) api.FleetAutoscale {
	target := p.opts.TargetInFlight
	if target <= 0 {
		target = 8
	}
	minR := p.opts.MinReplicas
	if minR <= 0 {
		minR = 1
	}
	maxR := p.opts.MaxReplicas
	if maxR <= 0 {
		maxR = 16
	}
	as := api.FleetAutoscale{Live: live, InFlight: inflight}

	fromQueue := int(math.Ceil(float64(inflight) / float64(target)))
	fromLatency := 0
	worstRatio := 0.0
	for tier, to := range p.tiers {
		if to.deadlineMS <= 0 || to.ring.Len() < 16 {
			continue
		}
		p95 := to.ring.Quantile(0.95)
		if ratio := p95 / to.deadlineMS; ratio > worstRatio {
			worstRatio = ratio
			as.WorstTier = tier.obj + "/" + tier.tol
			as.WorstP95MS = p95
			as.WorstDeadlineMS = to.deadlineMS
		}
	}
	if worstRatio > 1 && live > 0 {
		fromLatency = int(math.Ceil(float64(live) * worstRatio))
	}

	desired := live
	reason := "steady"
	if fromQueue > desired {
		desired = fromQueue
		reason = "queue depth over per-worker target"
	}
	if fromLatency > desired {
		desired = fromLatency
		reason = "tier p95 over requested deadline"
	}
	if desired < minR {
		desired = minR
		if live < minR {
			reason = "below minimum replicas"
		}
	}
	if desired > maxR {
		desired = maxR
		reason += " (clamped to max replicas)"
	}
	as.Desired = desired
	as.Reason = reason
	return as
}
