// Package fleet is the multi-node serving control plane: the front
// tier's worker registry (register + heartbeat liveness leases), the
// dispatch router that spreads traffic across live workers with
// tenant-affine consistent routing and transparent failover, the
// rolling rule-table push that moves the whole fleet to a new fenced
// table version one worker at a time, and the worker-side Agent that
// maintains membership from the other end of the wire.
//
// The paper's scale-out setting — multiple instantiations of each
// version behind a load balancer — is served for real here: worker nodes
// bootstrap from the snapshot-shipping endpoint (no pre-deployed
// corpus), serve the existing dispatch wire shapes, and the front tier
// routes around failures so a worker kill mid-run loses no requests.
package fleet

import (
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
// usable: 3s leases.
type Options struct {
	// Lease is the liveness lease granted on register/heartbeat; a
	// worker that misses it leaves rotation (0 = 3s).
	Lease time.Duration
	// Now overrides the clock (tests pin lease expiry with it).
	Now func() time.Time
	// Logf, when set, receives control-plane events (joins, expiries,
	// rollout steps).
	Logf func(format string, args ...any)
}

// latencyRingSize bounds the sliding window behind a member's p95
// round-trip estimate.
const latencyRingSize = 256

// member is one registered worker at one base URL (a worker that moves
// re-registers as a new member). The dispatch path reaches members
// through the routing snapshot, without Pool.mu: what it reads is fixed
// at registration or atomic, and the free list of keep-alive connections
// and the round-trip stats have the member's own lock.
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
	// Served round trips, in ms; putConn records them.
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
	rollout *rollout
}

// NewPool builds the front tier's fleet pool.
func NewPool(opts Options) *Pool {
	p := &Pool{
		opts:    opts,
		client:  &http.Client{Timeout: 30 * time.Second},
		members: make(map[string]*member),
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

// SetVersion seeds the fence at boot (from a restored snapshot; a fresh
// fleet is at version 0). It never lowers an already-promoted version.
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

// Status assembles GET /fleet: live workers, the fence, and the latest
// rollout.
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
	for _, m := range *p.routes.Load() {
		m.connMu.Lock()
		mean, p95 := m.lat.Mean, m.ring.Quantile(0.95)
		m.connMu.Unlock()
		st.Workers = append(st.Workers, api.FleetWorker{
			Name:             m.name,
			BaseURL:          m.base,
			TableVersion:     m.version.Load(),
			Requests:         m.requests.Load(),
			Failures:         m.failures.Load(),
			FailedOver:       m.failedOver.Load(),
			InFlight:         m.inflight.Load(),
			MeanLatencyMS:    mean,
			P95LatencyMS:     p95,
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
	return st
}
