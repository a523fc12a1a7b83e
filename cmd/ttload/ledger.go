package main

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/coalesce"
)

// series is one row of the ledger: every sent arrival lands in exactly
// one of graded (len(wallMS)), failures or shed. unrouted marks the
// failures the node answered before its dispatcher (4xx: no rule,
// unknown id), so a tenant's telemetry partition should read graded +
// failures - unrouted requests.
type series struct {
	sent        int
	wallMS      []float64
	simulatedMS []float64
	escalated   int
	hedged      int
	misses      int
	downgraded  int
	failures    int
	unrouted    int
	shed        int
}

// ledger accounts for every arrival the generator issued, once per
// requested tier and once per Tenant header sent (anonymous arrivals
// have a tier row only). Tier rows key by the *requested* annotation,
// so successes and failures of one consumer class always share a row;
// the node's own telemetry keys by the tier it resolved.
type ledger struct {
	mu      sync.Mutex
	tiers   map[string]*series
	tenants map[string]*series
	// admission is GET /admission after an -overload run.
	admission *api.AdmissionStatus
	// coalescer is the booted -coalesce node's counters after the run.
	coalescer *coalesce.Stats
}

func newLedger() *ledger {
	return &ledger{tiers: make(map[string]*series), tenants: make(map[string]*series)}
}

// update applies f to the arrival's tier row and, for a non-empty
// tenant, its tenant row.
func (l *ledger) update(tier, tenant string, f func(*series)) {
	row := func(m map[string]*series, k string) *series {
		if m[k] == nil {
			m[k] = &series{}
		}
		return m[k]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	f(row(l.tiers, tier))
	if tenant != "" {
		f(row(l.tenants, tenant))
	}
}

// sent records n arrivals entering the issue path.
func (l *ledger) sent(tier, tenant string, n int) {
	l.update(tier, tenant, func(s *series) { s.sent += n })
}

// graded records one answered arrival; wall is the generator-side time
// of the call that carried it.
func (l *ledger) graded(tier, tenant string, wall time.Duration, res *api.DispatchResult) {
	count := func(n *int, set bool) {
		if set {
			*n++
		}
	}
	l.update(tier, tenant, func(s *series) {
		s.wallMS = append(s.wallMS, float64(wall)/float64(time.Millisecond))
		s.simulatedMS = append(s.simulatedMS, res.LatencyMS)
		count(&s.escalated, res.Escalated)
		count(&s.hedged, res.Hedged)
		count(&s.misses, res.DeadlineExceeded)
		count(&s.downgraded, res.Downgraded)
	})
}

// rejected records n arrivals of one call that got no answer. The
// node's 429 (token bucket) and 503 (capacity, unmeetable deadline) are
// admission sheds — an accounted outcome, not a failure; any other 4xx
// was refused before the dispatcher saw it; the rest (502, a per-item
// batch error, a transport error: err is then not an *APIError) failed
// in or behind the dispatcher.
func (l *ledger) rejected(tier, tenant string, n int, err error) {
	var apiErr *client.APIError
	status := 0
	if errors.As(err, &apiErr) {
		status = apiErr.StatusCode
	}
	l.update(tier, tenant, func(s *series) {
		switch {
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			s.shed += n
		case status >= 400 && status < 500:
			s.failures += n
			s.unrouted += n
		default:
			s.failures += n
		}
	})
}

// verify checks the run's accounting against the node's own read side.
// Per requested tier, every arrival is accounted exactly once (sent =
// graded + failed + shed), and a run that injected no faults lost
// nothing: sheds are the node's explicit answer, but an outright failure
// means a request vanished, which a failover-correct front tier must
// never allow. Per Tenant header sent, the same identity holds, the
// tenant's telemetry partition (parts) agrees with the generator's
// tally, and the partitions sum to the global snapshot. l.coalescer, the
// coalescer's counters when this process booted a coalescing node, must
// show no waiter lost, double-delivered or stranded.
func (l *ledger) verify(global *api.TelemetrySnapshot, parts map[string]*api.TenantTelemetry, faultsInjected bool) error {
	for _, rows := range []map[string]*series{l.tiers, l.tenants} {
		for k, s := range rows {
			if got := len(s.wallMS) + s.failures + s.shed; s.sent != got {
				return fmt.Errorf("%s: sent %d != graded %d + failed %d + shed %d",
					k, s.sent, len(s.wallMS), s.failures, s.shed)
			}
		}
	}
	var sent, failed, unrouted, shed int
	for _, s := range l.tiers {
		sent += s.sent
		failed += s.failures
		unrouted += s.unrouted
		shed += s.shed
	}
	if sent == 0 {
		return errors.New("no arrivals were sent")
	}
	if failed > 0 && !faultsInjected {
		return fmt.Errorf("%d of %d dispatches failed outright (a lossless node must answer or shed, never lose)", failed, sent)
	}
	var partitionTotal int64
	for k, s := range l.tenants {
		part := parts[k]
		if part == nil {
			return fmt.Errorf("%s: no telemetry partition was read", k)
		}
		if dispatched := int64(len(s.wallMS) + s.failures - s.unrouted); part.Requests != dispatched {
			return fmt.Errorf("%s: telemetry partition saw %d requests, generator dispatched %d",
				k, part.Requests, dispatched)
		}
		if want := int64(s.failures - s.unrouted); part.Failures != want {
			return fmt.Errorf("%s: telemetry partition saw %d failures, generator recorded %d",
				k, part.Failures, want)
		}
		partitionTotal += part.Requests
	}
	if len(l.tenants) > 0 && global.Requests != partitionTotal {
		return fmt.Errorf("global telemetry saw %d requests, tenant partitions sum to %d",
			global.Requests, partitionTotal)
	}
	if coal := l.coalescer; coal != nil {
		if coal.Left != 0 {
			return fmt.Errorf("coalescer abandoned %d waiters under a background context", coal.Left)
		}
		if coal.Shed != int64(shed) {
			return fmt.Errorf("coalescer's gate shed %d, generator counted %d", coal.Shed, shed)
		}
		if delivered, routed := coal.Bypassed+coal.Coalesced, int64(sent-unrouted); delivered != routed {
			return fmt.Errorf("coalescer delivered %d (bypassed %d + coalesced %d), %d routed",
				delivered, coal.Bypassed, coal.Coalesced, routed)
		}
	}
	return nil
}
