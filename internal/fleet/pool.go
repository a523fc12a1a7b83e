// Package fleet is the multi-node serving control plane: the front
// tier's worker registry (register + heartbeat liveness leases), the
// dispatch router that spreads traffic across workers with
// tenant-affine consistent routing and transparent failover, the rule
// table version fence, and the worker-side Agent that maintains
// membership from the other end of the wire.
//
// Workers converge by pulling. A promotion only moves the fence; every
// register and heartbeat answer names it, and a worker below it pulls
// the snapshot. The front tier knows a worker's version only from that
// worker's own reports, and routes only to workers that report a
// version it holds: the fence, or for one lease after a promotion the
// version that promotion replaced.
//
// The paper's scale-out setting — multiple instantiations of each
// version behind a load balancer — is served for real here: worker nodes
// bootstrap from the snapshot-shipping endpoint (no pre-deployed
// corpus), serve the existing dispatch wire shapes, and the front tier
// routes around failures so a worker kill mid-run loses no requests.
package fleet

import (
	"maps"
	"math"
	"net"
	"net/url"
	"slices"
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
	// promotions).
	Logf func(format string, args ...any)
}

// latencyRingSize bounds the sliding window behind a member's p95
// round-trip estimate. GET /fleet reads it rarely, so it reads the
// window as it stands.
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

	version atomic.Int64 // as the worker last reported it
	expires atomic.Int64 // lease end, UnixNano

	requests, failures, failedOver, inflight atomic.Int64

	connMu sync.Mutex
	idle   []*workerConn
	gone   bool // left the pool: returning connections are closed
	// Served round trips, in ms; putConn records them.
	lat  stats.Stream
	ring *stats.Window
}

func newMember(name, base string) *member {
	m := &member{name: name, nameHdr: []string{name}, base: base, ring: stats.NewWindow(latencyRingSize, 1, 1, 0.95)}
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
// routing/failover accounting and the rule-table version fence.
type Pool struct {
	opts Options

	// routes is the name-sorted list of routable members the dispatch
	// path reads: copy-on-write, republished under mu whenever the set
	// changes.
	routes            atomic.Pointer[[]*member]
	rr                atomic.Uint64
	proxied, fallback atomic.Int64

	mu      sync.Mutex
	members map[string]*member
	version int64
	// replaced is the version the last promotion moved the fence off.
	// Its members stay routable until replacedUntil, one lease after the
	// promotion, while they pull; zero replacedUntil means no allowance.
	replaced      int64
	replacedUntil time.Time
}

// NewPool builds the front tier's fleet pool.
func NewPool(opts Options) *Pool {
	p := &Pool{opts: opts, members: make(map[string]*member)}
	p.routes.Store(new([]*member))
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

// Close closes the idle worker connections.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
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

// Promote moves the fence to ver, under the pool lock, so Status,
// Register and Heartbeat see it at once. It reaches no worker: each
// pulls the snapshot the front tier already persisted and serves under
// ver when its next heartbeat answer names ver. Members at the version
// ver replaces stay routable for one lease while they do.
func (p *Pool) Promote(ver int64) {
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.replaced, p.replacedUntil = p.version, now.Add(p.lease())
	p.version = ver
	p.publishLocked()
	p.logf("fleet: promoted table v%d; %d worker(s) converge by pull", ver, len(p.members))
}

// Register grants (or renews) a worker's lease and records the version
// it reports. The answer names the fence; a worker below it pulls.
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
		p.logf("fleet: worker %s joined at %s (table v%d)", name, base, ver)
	}
	m.version.Store(ver)
	m.expires.Store(now.Add(lease).UnixNano())
	p.publishLocked()
	return api.FleetRegisterResponse{LeaseMS: lease.Milliseconds(), TableVersion: p.version}
}

// Heartbeat renews a lease and records the version the worker reports.
// Known=false means the pool no longer holds the lease (expired,
// deregistered, or a front-tier restart) and the worker must
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
	if m.version.Swap(ver) != ver {
		p.publishLocked()
	}
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

// routableLocked reports whether the front tier holds the tables of
// version ver: the fence, or the version the last promotion replaced
// while its allowance lasts. Callers hold p.mu.
func (p *Pool) routableLocked(ver int64) bool {
	return ver == p.version || (!p.replacedUntil.IsZero() && ver == p.replaced)
}

// publishLocked republishes the routing snapshot if the set of routable
// members differs from the one published. Callers hold p.mu.
func (p *Pool) publishLocked() {
	routes := make([]*member, 0, len(p.members))
	for _, m := range p.members {
		if p.routableLocked(m.version.Load()) {
			routes = append(routes, m)
		}
	}
	sort.Slice(routes, func(i, j int) bool { return routes[i].name < routes[j].name })
	if !slices.Equal(routes, *p.routes.Load()) {
		p.routes.Store(&routes)
	}
}

// pruneLocked drops expired leases and an expired replaced-version
// allowance. Every control-plane call runs it; the dispatch path does
// not wait for it, it skips an expired member on sight. Callers hold
// p.mu.
func (p *Pool) pruneLocked(now time.Time) {
	pruned := false
	for name, m := range p.members {
		if !m.live(now) {
			p.dropLocked(m)
			pruned = true
			p.logf("fleet: worker %s lease expired; removed from rotation", name)
		}
	}
	if !p.replacedUntil.IsZero() && now.After(p.replacedUntil) {
		p.replacedUntil = time.Time{}
		pruned = true
	}
	if pruned {
		p.publishLocked()
	}
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
// routable workers one dispatch may try, at most failoverAttempts of
// them, in routing-preference order: the highest rendezvous scores for
// a named tenant, the next stretch of the round-robin over the
// name-sorted list for anonymous traffic. It reads the routing snapshot
// and takes no lock.
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

// Status assembles GET /fleet: the fence and every leased worker, routed
// or not, at the version it last reported.
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
	for _, name := range slices.Sorted(maps.Keys(p.members)) {
		m := p.members[name]
		m.connMu.Lock()
		mean, p95 := m.lat.Mean, m.ring.Quantile()
		m.connMu.Unlock()
		if math.IsNaN(p95) { // no served round trip yet
			p95 = 0
		}
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
	return st
}
