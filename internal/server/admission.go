package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/toltiers/toltiers/internal/admit"
	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/tiers"
)

// Admission endpoints and the admit stage of the tier-execution path.
//
//	GET  /admission         -> api.AdmissionStatus (counters, brownout state)
//	POST /admission/config  body: api.AdmissionConfig -> api.AdmissionStatus
//
// Every window the tier-execution path forms (see dispatch.go) passes
// admitWindow before the dispatcher leases any backend slot. The tenant
// travels in the Tenant header ("" = the default tenant). Sheds answer
// 429 (token bucket) or 503 (capacity, unmeetable deadline) with a
// Retry-After header in whole seconds (rounded up) and the precise hint
// in X-Toltiers-Retry-After-Ms; a brownout downgrade re-resolves the
// window at the cheaper brownout tier and marks the responses
// Downgraded.

func (s *Server) handleAdmission(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.adm.Status())
}

func (s *Server) handleAdmissionConfig(w http.ResponseWriter, r *http.Request) {
	var cfg admit.Config
	if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
		httpError(w, http.StatusBadRequest, "invalid admission config: %v", err)
		return
	}
	s.adm.SetConfig(cfg)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.adm.Status())
}

// shedError carries an admission shed from admitWindow back to the
// handler — through the coalescer's flush when one formed the window —
// which renders it as 429/503 with Retry-After.
type shedError struct {
	dec admit.Decision
}

func (e *shedError) Error() string {
	return "admission: " + e.dec.Verdict.String() + " (retry after " + e.dec.RetryAfter.String() + ")"
}

// tierOf recovers the objective and tolerance a tier key names: from
// reg's index when reg rendered the key — every ticket of the serving
// table, i.e. every window but a canary's or one caught mid-promotion —
// and by parsing it otherwise.
func tierOf(reg *tiers.Registry, key string) (rulegen.Objective, float64, bool) {
	if t, ok := reg.TierByKey(key); ok {
		return t.Objective, t.Tolerance, true
	}
	return splitTierKey(key)
}

// splitTierKey inverts dispatch.TierKey ("objective/tolerance"):
// objectives never contain '/', so the last slash is the separator.
// TierKey renders the tolerance with %g, which round-trips exactly.
func splitTierKey(tier string) (rulegen.Objective, float64, bool) {
	i := strings.LastIndexByte(tier, '/')
	if i < 0 {
		return "", 0, false
	}
	obj, err := rulegen.ParseObjective(tier[:i])
	if err != nil {
		return "", 0, false
	}
	tol, err := strconv.ParseFloat(tier[i+1:], 64)
	if err != nil {
		return "", 0, false
	}
	return obj, tol, true
}

// admitWindow is the node's one admission composition: it admits a
// window of n requests holding ticket t — n bucket tokens, one in-flight
// slot — before the dispatcher leases anything. The coalescer calls it
// as its Gate, once per flush; the non-coalesced single path and the
// batch path call it directly with n = 1 and n = len(ids).
//
// It admits the ticket it was handed — tolerance and policy as the
// handler's one resolve produced them (the floor is that of the policy's
// primary, which lower-bounds every response the policy can produce) —
// and never resolves the tier key again: a promotion between resolve and
// flush must not swap the policy under a response whose version header
// is already decided. The one exception is a brownout downgrade, which
// re-resolves the whole window at the cheaper brownout tier from the
// incumbent registry (leaving any canary slice) and returns the
// rewritten tier as the grant's Served; Served is nil otherwise.
//
// A shed rejects the whole window with a *shedError. On admission the
// caller owes Release once the dispatch finishes, which is what makes
// brownout transitions drop nothing: in-flight windows hold their slot
// and complete under the policy they were admitted with.
func (s *Server) admitWindow(n int, t dispatch.Ticket) (coalesce.Grant, error) {
	reg := s.registry()
	obj, tol, ok := tierOf(reg, t.Tier)
	if !ok {
		// Unreachable from the handlers, whose keys a registry rendered;
		// fail the window rather than dispatch unadmitted.
		return coalesce.Grant{}, fmt.Errorf("admission: malformed tier key %q", t.Tier)
	}
	dec := s.adm.AdmitBatch(time.Now(), t.Tenant, tol, t.Budget, s.disp.Floor(t.Policy.Primary), n)
	if dec.Verdict.Shed() {
		return coalesce.Grant{}, &shedError{dec: dec}
	}
	g := coalesce.Grant{Ticket: t, Release: func() { s.adm.Done(dec) }}
	if dec.Verdict == admit.Downgrade {
		// When the grid offers nothing cheaper than the tier already
		// resolved, the window serves unchanged.
		if tier, err := reg.ResolveTier(dec.Tolerance, obj); err == nil && tier.Tolerance > tol {
			rt := resolvedTier(tier, obj, t.Tenant, t.Budget, false)
			rt.ticket.Downgraded = true
			g.Ticket = rt.ticket
			g.Served = rt
		}
	}
	return g, nil
}

// write answers the shed: 429 for a drained token bucket, 503 for
// capacity or deadline sheds, Retry-After in both the standard
// whole-second form and millisecond precision.
func (e *shedError) write(w http.ResponseWriter) {
	secs := (e.dec.RetryAfter + time.Second - 1) / time.Second
	if secs < 1 {
		secs = 1
	}
	w.Header().Set(api.HeaderRetryAfter, strconv.FormatInt(int64(secs), 10))
	w.Header().Set(api.HeaderRetryAfterMS,
		strconv.FormatFloat(float64(e.dec.RetryAfter)/float64(time.Millisecond), 'f', 3, 64))
	httpError(w, e.dec.Verdict.StatusCode(), "%v", e)
}
