package dispatch

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/toltiers/toltiers/internal/api"
)

// Telemetry accumulates the dispatcher's online serving statistics as
// counts, sums and maxima: per tier the request and runtime-event
// counts, Σ task error over graded requests, Σ and max response
// latency, and Σ invocation cost; per backend the invocation and
// latency-sample counts, Σ latency and the billed totals. Every figure
// GET /telemetry serves, bar the backends' hedging p95 estimates, is
// one of these or a quotient of two. It is the live counterpart of the
// offline bootstrap — the same means the Fig.-7 generator predicts per
// tier are measured here on real traffic, which is what the
// replay-convergence test pins.
//
// Storage is sharded so concurrent dispatchers never serialize on one
// lock: a dispatch commits its whole transaction — one delta of the
// same sums — to a single shard chosen through a P-affine sync.Pool, so
// steady-state commits take an uncontended shard mutex, while
// GET /telemetry adds the shards together one lock at a time without
// ever stalling the dispatch path. Counts add exactly; a mean is a sum
// over a count, so it depends on the order the shards were added only
// in the last float bits.
//
// Beyond the global stripe, every shard also carries per-tenant
// partitions: a ticket with a non-empty Tenant adds its transaction to
// the tenant's own partition in the same commit, under the same single
// shard lock. The anonymous tenant ("") is not partitioned — it is the
// global stripe — so the tenant-less dispatch path stays
// allocation-free (the alloc-regression tests pin this with partitions
// compiled in).
//
// All methods are safe for concurrent use.
type Telemetry struct {
	shards []telemetryShard
	names  []string
	// pool hands each P a preferred shard pointer so repeated commits
	// from one core hit one uncontended mutex; rr round-robins shard
	// assignment when the pool mints a new preference.
	pool sync.Pool
	rr   atomic.Uint64
}

// tierSums is one tier's counters and sums: a transaction's delta, a
// shard's running total, and a snapshot's merge are all this type.
type tierSums struct {
	requests           int64
	escalations        int64
	hedges             int64
	deadlineMisses     int64
	escalationFailures int64
	graded             int64
	errSum             float64 // graded requests only
	latNsSum           float64
	latNsMax           float64
	invSum             float64
}

func (s *tierSums) add(o *tierSums) {
	s.requests += o.requests
	s.escalations += o.escalations
	s.hedges += o.hedges
	s.deadlineMisses += o.deadlineMisses
	s.escalationFailures += o.escalationFailures
	s.graded += o.graded
	s.errSum += o.errSum
	s.latNsSum += o.latNsSum
	s.latNsMax = max(s.latNsMax, o.latNsMax)
	s.invSum += o.invSum
}

// backendSums is one backend's counters and sums. A cancelled hedge is
// an invocation (billed) without a latency sample: the backend never
// reported one.
type backendSums struct {
	invocations int64
	latN        int64
	latNsSum    float64
	invUSD      float64
	iaasUSD     float64
}

func (s *backendSums) add(o *backendSums) {
	s.invocations += o.invocations
	s.latN += o.latN
	s.latNsSum += o.latNsSum
	s.invUSD += o.invUSD
	s.iaasUSD += o.iaasUSD
}

// partition is one stripe's worth of serving statistics — the global
// view and each tenant's view have identical shape. Its request count
// is derived: every finished dispatch is one tier request, every other
// one a failure.
type partition struct {
	failures int64
	tiers    map[string]*tierSums
	backends []backendSums
}

func newPartition(n int) *partition {
	return &partition{tiers: make(map[string]*tierSums), backends: make([]backendSums, n)}
}

// add folds a delta into p: a failure count, per-backend sums, and one
// tier's sums (s nil or empty adds no tier row). A commit adds one
// transaction; a snapshot adds another partition's backends and then
// each of its tiers. The caller holds whatever lock guards p.
func (p *partition) add(failures int64, backends []backendSums, tier string, s *tierSums) {
	p.failures += failures
	for j := range backends {
		p.backends[j].add(&backends[j])
	}
	if s == nil || (s.requests == 0 && s.escalationFailures == 0) {
		return
	}
	ts := p.tiers[tier]
	if ts == nil {
		ts = &tierSums{}
		p.tiers[tier] = ts
	}
	ts.add(s)
}

// addPartition folds all of o into p.
func (p *partition) addPartition(o *partition) {
	p.add(o.failures, o.backends, "", nil)
	for k, s := range o.tiers {
		p.add(0, nil, k, s)
	}
}

// requests is the partition's dispatch count: its tier requests plus
// its failures.
func (p *partition) requests() int64 {
	n := p.failures
	for _, s := range p.tiers {
		n += s.requests
	}
	return n
}

// telemetryShard is one stripe of the telemetry: the embedded global
// partition plus this stripe's slice of every tenant's partition. The
// padding keeps independently-locked shards off each other's cache
// lines.
type telemetryShard struct {
	mu sync.Mutex
	partition
	tenants map[string]*partition
	_       [64]byte
}

// defaultTelemetryShards sizes the stripe count: a power of two covering
// GOMAXPROCS with headroom (GOMAXPROCS may be raised after construction),
// clamped to [8, 64].
func defaultTelemetryShards() int {
	n := 8
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n *= 2
	}
	return n
}

// newTelemetry sizes the per-backend slots from the backend list.
func newTelemetry(names []string) *Telemetry {
	t := &Telemetry{shards: make([]telemetryShard, defaultTelemetryShards()), names: names}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.partition = *newPartition(len(names))
		sh.tenants = make(map[string]*partition)
	}
	t.pool.New = func() any {
		return &t.shards[t.rr.Add(1)%uint64(len(t.shards))]
	}
	return t
}

// telemetryTxn is one dispatch transaction's delta, summed locally (its
// backend slots are sized once, in the pooled dispatchCall) so the
// dispatch path takes exactly one shard lock per commit — per request
// for Do, per batch for DoBatch.
type telemetryTxn struct {
	tier string
	// tenant selects the per-tenant partition the transaction also
	// adds to ("" = global stripe only, the allocation-free path).
	tenant string
	// failures counts dispatches that produced no result; they count
	// toward total requests but create no tier row.
	failures int64
	sums     tierSums
	backends []backendSums
}

// reset rewinds the transaction for a new tier and tenant.
func (x *telemetryTxn) reset(tier, tenant string) {
	x.tier = tier
	x.tenant = tenant
	x.failures = 0
	x.sums = tierSums{}
	clear(x.backends)
}

// addOutcome adds one finished dispatch to the transaction.
func (x *telemetryTxn) addOutcome(o *Outcome) {
	s := &x.sums
	s.requests++
	if o.Escalated {
		s.escalations++
	}
	if o.Hedged {
		s.hedges++
	}
	if o.DeadlineExceeded {
		s.deadlineMisses++
	}
	if !math.IsNaN(o.Err) {
		s.graded++
		s.errSum += o.Err
	}
	s.latNsSum += float64(o.Latency)
	s.latNsMax = max(s.latNsMax, float64(o.Latency))
	s.invSum += o.InvCost
}

// addInvocation records one completed backend invocation: its reported
// service latency and its final billed costs (IaaS after any
// early-termination credit).
func (x *telemetryTxn) addInvocation(backend int, latency time.Duration, invCost, iaasCost float64) {
	b := &x.backends[backend]
	b.latN++
	b.latNsSum += float64(latency)
	x.addBilled(backend, invCost, iaasCost)
}

// addBilled records a started-but-unfinished invocation (a cancelled
// hedge, billed from its plan): an invocation without a latency sample.
func (x *telemetryTxn) addBilled(backend int, invCost, iaasCost float64) {
	b := &x.backends[backend]
	b.invocations++
	b.invUSD += invCost
	b.iaasUSD += iaasCost
}

// addEscalationFailure counts a secondary invocation that failed after
// the primary had already answered (the dispatcher degrades to the
// primary's result).
func (x *telemetryTxn) addEscalationFailure() { x.sums.escalationFailures++ }

// addFailure counts a dispatch that produced no result at all.
func (x *telemetryTxn) addFailure() { x.failures++ }

// commit adds the transaction to one shard under a single lock: the
// global stripe always, and the tenant's partition of the same shard
// when the ticket named one. The tenant add allocates only the first
// time a tenant lands on a shard; the tenant-less path takes one
// predictable branch.
func (t *Telemetry) commit(x *telemetryTxn) {
	sh := t.pool.Get().(*telemetryShard)
	sh.mu.Lock()
	sh.add(x.failures, x.backends, x.tier, &x.sums)
	if x.tenant != "" {
		tn := sh.tenants[x.tenant]
		if tn == nil {
			tn = newPartition(len(t.names))
			sh.tenants[x.tenant] = tn
		}
		tn.add(x.failures, x.backends, x.tier, &x.sums)
	}
	sh.mu.Unlock()
	t.pool.Put(sh)
}

// mean is sum/n, 0 for an empty count.
func mean(sum float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// renderTiers flattens a merged tier map into sorted wire rows.
func renderTiers(tiers map[string]*tierSums) []api.TierTelemetry {
	keys := make([]string, 0, len(tiers))
	for k := range tiers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]api.TierTelemetry, 0, len(keys))
	for _, k := range keys {
		ts := tiers[k]
		rows = append(rows, api.TierTelemetry{
			Tier:               k,
			Requests:           ts.requests,
			Escalations:        ts.escalations,
			Hedges:             ts.hedges,
			DeadlineMisses:     ts.deadlineMisses,
			EscalationFailures: ts.escalationFailures,
			Graded:             ts.graded,
			MeanErr:            mean(ts.errSum, ts.graded),
			MeanLatencyMS:      mean(ts.latNsSum, ts.requests) / 1e6,
			MaxLatencyMS:       ts.latNsMax / 1e6,
			MeanCostUSD:        mean(ts.invSum, ts.requests),
		})
	}
	return rows
}

// renderBackends flattens merged backend stripes into wire rows.
// trackerP95 supplies the dispatcher's cached hedging estimates (nil for
// tenant partitions — the estimate is a dispatcher-global order
// statistic, not a per-tenant one). skipIdle drops backends the
// partition never touched, keeping tenant rollups compact.
func renderBackends(names []string, backends []backendSums, trackerP95 func(backend int) float64, skipIdle bool) []api.BackendTelemetry {
	var rows []api.BackendTelemetry
	for i := range backends {
		b := &backends[i]
		if skipIdle && b.invocations == 0 {
			continue
		}
		p95 := 0.0
		if trackerP95 != nil {
			if v := trackerP95(i); !math.IsNaN(v) {
				p95 = v / 1e6
			}
		}
		rows = append(rows, api.BackendTelemetry{
			Backend:       names[i],
			Invocations:   b.invocations,
			MeanLatencyMS: mean(b.latNsSum, b.latN) / 1e6,
			P95LatencyMS:  p95,
			InvocationUSD: b.invUSD,
			IaaSUSD:       b.iaasUSD,
		})
	}
	return rows
}

// renderTenant flattens one tenant's merged partition into its wire row.
func (t *Telemetry) renderTenant(id string, p *partition) api.TenantTelemetry {
	return api.TenantTelemetry{
		Tenant:   id,
		Requests: p.requests(),
		Failures: p.failures,
		Tiers:    renderTiers(p.tiers),
		Backends: renderBackends(t.names, p.backends, nil, true),
	}
}

// snapshot renders the wire view by adding every shard: the global
// stripe plus the per-tenant rollup. trackerP95 supplies the
// dispatcher's cached per-backend hedging estimates (ns; NaN when
// unknown). Shards are locked one at a time, so a snapshot in flight
// never stalls more than one concurrent dispatch commit.
func (t *Telemetry) snapshot(trackerP95 func(backend int) float64) api.TelemetrySnapshot {
	agg := newPartition(len(t.names))
	tenants := make(map[string]*partition)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		agg.addPartition(&sh.partition)
		for id, tn := range sh.tenants {
			dst := tenants[id]
			if dst == nil {
				dst = newPartition(len(t.names))
				tenants[id] = dst
			}
			dst.addPartition(tn)
		}
		sh.mu.Unlock()
	}
	snap := api.TelemetrySnapshot{
		Requests: agg.requests(),
		Failures: agg.failures,
		Tiers:    renderTiers(agg.tiers),
		Backends: renderBackends(t.names, agg.backends, trackerP95, false),
	}
	ids := make([]string, 0, len(tenants))
	for id := range tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		snap.Tenants = append(snap.Tenants, t.renderTenant(id, tenants[id]))
	}
	return snap
}

// TenantSnapshot renders one tenant's partition added up across shards
// (the zero row when the tenant was never observed). The anonymous
// tenant "" has no partition — its traffic is only the global stripe.
func (t *Telemetry) TenantSnapshot(tenant string) api.TenantTelemetry {
	agg := newPartition(len(t.names))
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if tn := sh.tenants[tenant]; tn != nil {
			agg.addPartition(tn)
		}
		sh.mu.Unlock()
	}
	return t.renderTenant(tenant, agg)
}
