package server

import (
	"encoding/json"
	"net/http"
	"strconv"

	"github.com/toltiers/toltiers/internal/admit"
	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/trace"
)

// The flight-recorder read side:
//
//	GET /trace/recent?tier=&tenant=&kind=&n=  -> api.TraceRecent
//	GET /trace/{id}                           -> api.TraceSpan
//
// Spans are captured by the dispatcher's recorder (head-sampled, with
// errors/sheds/hedges/deadline-misses/degradations and tail-latency
// outliers always kept); the ring holds the most recent captures, so
// /trace/{id} answers 404 both for ids the sampler dropped and ids the
// ring has since evicted.

// handleTraceRecent serves the newest matching spans.
func (s *Server) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		httpError(w, http.StatusServiceUnavailable, "tracing disabled on this node")
		return
	}
	q := r.URL.Query()
	f := trace.Filter{Tier: q.Get("tier"), Tenant: q.Get("tenant")}
	if kind := q.Get("kind"); kind != "" {
		code, ok := trace.KindByName(kind)
		if !ok {
			httpError(w, http.StatusBadRequest, "unknown kind %q", kind)
			return
		}
		f.Kind, f.HasKind = code, true
	}
	n := 50
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, "invalid n %q", raw)
			return
		}
		n = v
	}
	if n > s.rec.Size() {
		n = s.rec.Size()
	}
	spans := s.rec.Recent(f, n)
	st := s.rec.Stats()
	resp := api.TraceRecent{
		Spans:      make([]api.TraceSpan, 0, len(spans)),
		Dispatches: st.Dispatches,
		Sheds:      st.Sheds,
		Committed:  st.Committed,
		Kinds:      st.Kinds,
	}
	for i := range spans {
		resp.Spans = append(resp.Spans, traceSpanWire(&spans[i]))
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// handleTraceGet serves one span by its 16-hex trace id.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		httpError(w, http.StatusServiceUnavailable, "tracing disabled on this node")
		return
	}
	raw := r.PathValue("id")
	id, ok := trace.ParseID(raw)
	if !ok {
		httpError(w, http.StatusBadRequest, "invalid trace id %q", raw)
		return
	}
	sp, found := s.rec.Get(id)
	if !found {
		httpError(w, http.StatusNotFound, "trace %s not held (sampled out or evicted)", raw)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(traceSpanWire(&sp))
}

// shedAdmitCode maps an admission shed verdict to the span's admit code.
func shedAdmitCode(v admit.Verdict) uint8 {
	switch v {
	case admit.ShedRate:
		return trace.AdmitShedRate
	case admit.ShedCapacity:
		return trace.AdmitShedCapacity
	case admit.ShedDeadline:
		return trace.AdmitShedDeadline
	}
	return trace.AdmitNone
}

// traceSpanWire renders a recorder span as its JSON wire form.
func traceSpanWire(s *trace.Span) api.TraceSpan {
	ts := api.TraceSpan{
		ID:               trace.FormatID(s.ID),
		UnixMS:           s.Time / 1e6,
		Tier:             s.Tier,
		Tenant:           s.Tenant,
		Kind:             trace.KindName(s.Kind),
		Admit:            trace.AdmitName(s.Admit),
		Window:           s.Window,
		ParkMS:           float64(s.ParkNs) / 1e6,
		LatencyMS:        float64(s.LatencyNs) / 1e6,
		CostUSD:          s.InvCost,
		IaaSUSD:          s.IaaSCost,
		Hedged:           s.Hedged,
		Escalated:        s.Escalated,
		Degraded:         s.Degraded,
		DeadlineExceeded: s.DeadlineExceeded,
		Error:            s.Err,
	}
	for i := uint8(0); i < s.NLegs; i++ {
		l := &s.Legs[i]
		ts.Legs = append(ts.Legs, api.TraceLeg{
			Backend:   l.Backend,
			QueueMS:   float64(l.QueueNs) / 1e6,
			ServiceMS: float64(l.ServiceNs) / 1e6,
			Hedge:     l.Hedge,
			Escalated: l.Escalated,
			Cancelled: l.Cancelled,
			Error:     l.Err,
		})
	}
	return ts
}
