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
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"sync"
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
	// Client is the HTTP client for proxying and table pushes (nil =
	// a dedicated client with sane timeouts).
	Client *http.Client
	// Now overrides the clock (tests pin lease expiry with it).
	Now func() time.Time
	// Logf, when set, receives control-plane events (joins, expiries,
	// rollout steps).
	Logf func(format string, args ...any)
}

// latencyRingSize bounds the sliding window behind per-member and
// per-tier p95 estimates.
const latencyRingSize = 256

// member is one registered worker: lease bookkeeping and the router's
// health/latency accounting. All fields are guarded by Pool.mu except
// the counters, which the proxy path updates without holding the lock
// across network I/O.
type member struct {
	name    string
	base    string
	version int64
	expires time.Time

	counters memberCounters
	lat      stats.Stream
	ring     stats.Ring
}

// memberCounters live under Pool.mu too, but are split out so the
// proxy path's bookkeeping reads as what it is: increments taken in
// short critical sections around (never across) network calls.
type memberCounters struct {
	requests   int64
	failures   int64
	failedOver int64
	inflight   int64
}

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
	client *http.Client

	mu       sync.Mutex
	members  map[string]*member
	version  int64
	rr       uint64
	proxied  int64
	fallback int64
	tiers    map[string]*tierObs
	rollout  *rollout
}

// NewPool builds the front tier's fleet pool.
func NewPool(opts Options) *Pool {
	client := opts.Client
	if client == nil {
		// The default transport keeps only 2 idle connections per host —
		// a router fanning dozens of concurrent proxies into a handful of
		// workers would open (and handshake) a fresh TCP connection for
		// nearly every dispatch. Keep enough warm connections for the
		// whole proxy concurrency.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 512
		tr.MaxIdleConnsPerHost = 256
		client = &http.Client{Timeout: 30 * time.Second, Transport: tr}
	}
	return &Pool{
		opts:    opts,
		client:  client,
		members: make(map[string]*member),
		tiers:   make(map[string]*tierObs),
	}
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

// Close cancels any rolling push in flight.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rollout != nil && !p.rollout.done {
		p.rollout.cancel()
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
	m := p.members[name]
	if m == nil {
		m = &member{name: name, ring: stats.NewRing(latencyRingSize)}
		p.members[name] = m
		p.logf("fleet: worker %s joined at %s (table v%d)", name, base, ver)
	}
	m.base = base
	m.version = ver
	m.expires = now.Add(lease)
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
	m := p.members[name]
	if m == nil || now.After(m.expires) {
		if m != nil {
			delete(p.members, name)
			p.logf("fleet: worker %s lease lapsed before renewal", name)
		}
		return api.FleetHeartbeatResponse{Known: false, TableVersion: p.version}
	}
	m.expires = now.Add(lease)
	m.version = ver
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
	if _, ok := p.members[name]; ok {
		delete(p.members, name)
		p.logf("fleet: worker %s deregistered", name)
	}
}

// pruneLocked drops expired leases. Callers hold p.mu.
func (p *Pool) pruneLocked(now time.Time) {
	for name, m := range p.members {
		if now.After(m.expires) {
			delete(p.members, name)
			p.logf("fleet: worker %s lease expired; removed from rotation", name)
		}
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
// moves the tenants that ranked the changed worker first.
func rendezvous(tenant, worker string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(tenant))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(worker))
	return h.Sum64()
}

// candidates returns the live workers in routing-preference order for
// one dispatch: rendezvous order for a named tenant, round-robin over
// the name-sorted list for anonymous traffic.
func (p *Pool) candidates(tenant string) []*member {
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pruneLocked(now)
	if len(p.members) == 0 {
		return nil
	}
	out := make([]*member, 0, len(p.members))
	for _, m := range p.members {
		out = append(out, m)
	}
	if tenant != "" {
		sort.Slice(out, func(i, j int) bool {
			si, sj := rendezvous(tenant, out[i].name), rendezvous(tenant, out[j].name)
			if si != sj {
				return si > sj
			}
			return out[i].name < out[j].name
		})
		return out
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	start := int(p.rr % uint64(len(out)))
	p.rr++
	rotated := make([]*member, 0, len(out))
	rotated = append(rotated, out[start:]...)
	rotated = append(rotated, out[:start]...)
	return rotated
}

// observe folds one completed proxy round trip into the member's and
// the tier's accounting.
func (p *Pool) observe(m *member, tier string, deadlineMS, wallMS float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m.lat.Add(wallMS)
	m.ring.Add(wallMS)
	if tier == "" {
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
		Proxied:       p.proxied,
		LocalFallback: p.fallback,
	}
	names := make([]string, 0, len(p.members))
	for name := range p.members {
		names = append(names, name)
	}
	sort.Strings(names)
	var inflight int64
	for _, name := range names {
		m := p.members[name]
		inflight += m.counters.inflight
		st.Workers = append(st.Workers, api.FleetWorker{
			Name:             m.name,
			BaseURL:          m.base,
			TableVersion:     m.version,
			Requests:         m.counters.requests,
			Failures:         m.counters.failures,
			FailedOver:       m.counters.failedOver,
			InFlight:         m.counters.inflight,
			MeanLatencyMS:    m.lat.Mean,
			P95LatencyMS:     m.ring.Quantile(0.95),
			LeaseRemainingMS: m.expires.Sub(now).Milliseconds(),
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
	st.Autoscale = p.autoscaleLocked(len(names), inflight)
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
			as.WorstTier = tier
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
