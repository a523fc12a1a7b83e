package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/trace"
)

// The tier-execution path. The paper's API (§IV-A) is one request shape
// — an input plus the Tolerance/Objective annotation — and the tier, not
// the endpoint, decides how it executes. So the node has one staged
// path and three thin adapters over it:
//
//	parse    annotation headers + JSON body                  (parseCall)
//	resolve  rule, canary bit and version fence from a single
//	         read, and from them the request's one ticket    (resolve)
//	admit    a window of n requests holding that ticket      (admitWindow)
//	dispatch Do for a window of one, DoBatch for more
//	render   the outcome under the tier actually served      (dispatchResult)
//
// A single request is a window of one — formed by the coalescer when
// Config.Coalesce is set, so concurrent singles of one ticket share a
// window, and admitted directly otherwise; a batch is a pre-formed
// window. The adapters differ only in body shape, in whether the worker
// fleet is offered the request first, and in response shape (all carry
// `Tolerance:`, and optionally `Objective:` and `Tenant:`, headers):
//
//	POST /compute         body: {"request_id": 1234}
//	  -> api.ComputeResult; never offered to the fleet, no deadline
//	POST /dispatch        body: {"request_id": 1234, "deadline_ms": 40}
//	  -> api.DispatchResult
//	POST /dispatch/batch  body: {"request_ids": [1234, 1235], "deadline_ms": 40}
//	  -> api.DispatchBatchResult
//	GET /telemetry[?tenant=acme] -> api.TelemetrySnapshot / api.TenantTelemetry

// resolved is a tier as it travels the staged path: the ticket the
// dispatcher executes, plus the two rule fields a response renders that
// the ticket only carries folded into its tier key.
type resolved struct {
	tolerance float64 // of the rule, i.e. the tier served
	obj       rulegen.Objective
	ticket    dispatch.Ticket
}

// parseCall is the parse stage: the §IV-A annotation headers (a missing
// Objective defaults to response-time), then the JSON body into the
// endpoint's request shape. Errors are already written to w.
func parseCall(w http.ResponseWriter, r *http.Request, body any) (float64, rulegen.Objective, bool) {
	tolHeader := r.Header.Get("Tolerance")
	if tolHeader == "" {
		httpError(w, http.StatusBadRequest, "missing Tolerance header")
		return 0, "", false
	}
	tol, err := strconv.ParseFloat(tolHeader, 64)
	if err != nil || tol < 0 {
		httpError(w, http.StatusBadRequest, "invalid Tolerance header %q", tolHeader)
		return 0, "", false
	}
	objHeader := r.Header.Get("Objective")
	if objHeader == "" {
		objHeader = string(rulegen.MinimizeLatency)
	}
	obj, err := rulegen.ParseObjective(objHeader)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid Objective header %q", objHeader)
		return 0, "", false
	}
	if err := json.NewDecoder(r.Body).Decode(body); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return 0, "", false
	}
	return tol, obj, true
}

// parseBudget converts a request's deadline_ms into a Duration budget.
// It rejects negatives and values whose nanosecond conversion would
// overflow int64 (a silent overflow would wrap negative and disable the
// requested deadline); errors are already written to w.
func parseBudget(w http.ResponseWriter, deadlineMS float64) (time.Duration, bool) {
	if deadlineMS < 0 {
		httpError(w, http.StatusBadRequest, "negative deadline_ms %v", deadlineMS)
		return 0, false
	}
	ns := deadlineMS * float64(time.Millisecond)
	// float64(MaxInt64) rounds up to 2^63, which itself overflows the
	// conversion — hence >=, not >.
	if ns >= float64(math.MaxInt64) {
		httpError(w, http.StatusBadRequest, "deadline_ms %v too large", deadlineMS)
		return 0, false
	}
	return time.Duration(ns), true
}

// resolve is the resolve stage, run exactly once per HTTP request: the
// rule, its canary bit and the version fence come from a single read
// under regMu, so a concurrent promotion can never yield a response
// whose X-Toltiers-Table-Version names one table and whose policy
// another, nor a mixed-version batch. Everything downstream — the
// coalescing key, admission, the dispatcher, the renderer — works from
// the ticket built here. Errors are already written to w.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, tol float64, obj rulegen.Objective, deadlineMS float64) (resolved, int64, bool) {
	budget, ok := parseBudget(w, deadlineMS)
	if !ok {
		return resolved{}, 0, false
	}
	tenant := r.Header.Get("Tenant")
	rule, isCanary, tableVer, err := s.resolveRule(tol, obj, tenant)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return resolved{}, 0, false
	}
	return resolved{
		tolerance: rule.Tolerance,
		obj:       obj,
		ticket: dispatch.Ticket{
			Tier:   dispatch.TierKey(string(obj), rule.Tolerance),
			Tenant: tenant,
			Policy: rule.Candidate.Policy,
			Budget: budget,
			Canary: isCanary,
		},
	}, tableVer, true
}

// lookup finds a corpus request by ID; a miss is already answered 404.
func (s *Server) lookup(w http.ResponseWriter, id int) (*service.Request, bool) {
	req, found := s.byID[id]
	if !found {
		httpError(w, http.StatusNotFound, "request_id %d not in corpus", id)
	}
	return req, found
}

// dispatchOne admits and executes a window of one. On a coalescing node
// the coalescer forms the window (its zero-wait bypass makes an
// uncontended request exactly the direct path below) and calls
// admitWindow as its gate; otherwise the window is admitted here. The
// returned tier is the one actually served — rt unless a brownout
// downgrade rewrote the window.
func (s *Server) dispatchOne(ctx context.Context, req *service.Request, rt resolved) (dispatch.Outcome, resolved, error) {
	var (
		out    dispatch.Outcome
		served any
		err    error
	)
	if s.coal != nil {
		out, served, err = s.coal.Do(ctx, req, rt.ticket)
	} else {
		var g coalesce.Grant
		if g, err = s.admitWindow(1, rt.ticket); err == nil {
			out, err = s.disp.Do(ctx, req, g.Ticket)
			g.Release()
			served = g.Served
		}
	}
	if d, ok := served.(resolved); ok {
		rt = d
	}
	return out, rt, err
}

// renderFailure answers a window that produced no outcomes: an
// admission shed as 429/503 with both Retry-After forms — captured in
// the flight recorder here, under the request's own trace id, because
// sheds never reach the dispatcher — anything else as 502.
func (s *Server) renderFailure(w http.ResponseWriter, r *http.Request, t dispatch.Ticket, err error) {
	var sh *shedError
	if !errors.As(err, &sh) {
		httpError(w, http.StatusBadGateway, "%v", err)
		return
	}
	if s.rec != nil {
		s.rec.RecordShed(trace.IDFromContext(r.Context()), t.Tier, t.Tenant, shedAdmitCode(sh.dec.Verdict))
	}
	sh.write(w)
}

// dispatchResult is the render stage: one dispatched outcome under the
// tier that served it (policy is rt.ticket.Policy rendered once per
// response). /compute answers with the embedded ComputeResult alone.
func dispatchResult(req *service.Request, out *dispatch.Outcome, rt *resolved, policy string) api.DispatchResult {
	res := api.DispatchResult{
		ComputeResult: api.ComputeResult{
			Confidence: out.Result.Confidence,
			Tier:       rt.tolerance,
			Objective:  string(rt.obj),
			Policy:     policy,
			LatencyMS:  float64(out.Latency) / float64(time.Millisecond),
			CostUSD:    out.InvCost,
			Escalated:  out.Escalated,
		},
		Backend:          out.Backend,
		Started:          out.Started,
		Hedged:           out.Hedged,
		DeadlineExceeded: out.DeadlineExceeded,
		Downgraded:       rt.ticket.Downgraded,
		IaaSUSD:          out.IaaSCost,
	}
	if req.Utterance != nil {
		res.Transcript = out.Result.Transcript
	} else {
		c := out.Result.Class
		res.Class = &c
	}
	return res
}

// single runs one corpus request down the staged path for the two
// single-request adapters. On !ok the response is already written.
func (s *Server) single(w http.ResponseWriter, r *http.Request, tol float64, obj rulegen.Objective, id int, deadlineMS float64) (res api.DispatchResult, tableVer int64, ok bool) {
	rt, tableVer, ok := s.resolve(w, r, tol, obj, deadlineMS)
	if !ok {
		return res, 0, false
	}
	req, ok := s.lookup(w, id)
	if !ok {
		return res, 0, false
	}
	out, rt, err := s.dispatchOne(r.Context(), req, rt)
	if err != nil {
		s.renderFailure(w, r, rt.ticket, err)
		return res, 0, false
	}
	return dispatchResult(req, &out, &rt, rt.ticket.Policy.String()), tableVer, true
}

// handleCompute is the paper's §IV-A endpoint: the staged path with no
// deadline (so no hedging), answered with the ComputeResult fields and
// the latency/cost accounting headers. On a coalescing node it rides
// the coalescer like /dispatch — the two endpoints build the same ticket
// for the same annotation, so their requests share windows.
func (s *Server) handleCompute(w http.ResponseWriter, r *http.Request) {
	var body api.ComputeRequest
	tol, obj, ok := parseCall(w, r, &body)
	if !ok {
		return
	}
	res, _, ok := s.single(w, r, tol, obj, body.RequestID, 0)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Toltiers-Policy", res.Policy)
	w.Header().Set("X-Toltiers-Latency-MS", strconv.FormatFloat(res.LatencyMS, 'f', 3, 64))
	w.Header().Set("X-Toltiers-Cost-USD", strconv.FormatFloat(res.CostUSD, 'f', 6, 64))
	_ = json.NewEncoder(w).Encode(res.ComputeResult)
}

func (s *Server) handleDispatch(w http.ResponseWriter, r *http.Request) {
	// Front tier: route to the worker fleet before local admission —
	// the fleet is the capacity; the local path is the fallback when no
	// worker can serve.
	if s.pool != nil && s.proxyDispatch(w, r, "/dispatch") {
		return
	}
	var body api.DispatchRequest
	tol, obj, ok := parseCall(w, r, &body)
	if !ok {
		return
	}
	res, tableVer, ok := s.single(w, r, tol, obj, body.RequestID, body.DeadlineMS)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Toltiers-Policy", res.Policy)
	w.Header().Set("X-Toltiers-Backend", res.Backend)
	w.Header().Set("X-Toltiers-Latency-MS", strconv.FormatFloat(res.LatencyMS, 'f', 3, 64))
	w.Header().Set("X-Toltiers-Table-Version", strconv.FormatInt(tableVer, 10))
	_ = json.NewEncoder(w).Encode(res)
}

// handleTelemetry serves the global snapshot (with its per-tenant
// rollup), or a single tenant's partition when ?tenant= names one.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if tenant := r.URL.Query().Get("tenant"); tenant != "" {
		_ = json.NewEncoder(w).Encode(s.disp.TenantSnapshot(tenant))
		return
	}
	_ = json.NewEncoder(w).Encode(s.disp.Snapshot())
}

// maxBatchItems bounds one POST /dispatch/batch body; larger workloads
// split into multiple batches (the amortization has long flattened out
// by this size).
const maxBatchItems = 4096

// batchEncoder pools the JSON encoding machinery of the batch endpoint:
// a batch response is the one payload the server emits at high fan-out
// (thousands of items per body), so its buffer and scratch slices are
// recycled instead of reallocated per request.
type batchEncoder struct {
	buf   bytes.Buffer
	enc   *json.Encoder
	reqs  []*service.Request
	outs  []dispatch.Outcome
	errs  []error
	items []api.DispatchBatchItem
}

var batchEncoders = sync.Pool{New: func() any {
	e := &batchEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

func (s *Server) handleDispatchBatch(w http.ResponseWriter, r *http.Request) {
	if s.pool != nil && s.proxyDispatch(w, r, "/dispatch/batch") {
		return
	}
	var body api.DispatchBatchRequest
	tol, obj, ok := parseCall(w, r, &body)
	if !ok {
		return
	}
	if len(body.RequestIDs) == 0 {
		httpError(w, http.StatusBadRequest, "empty request_ids")
		return
	}
	if len(body.RequestIDs) > maxBatchItems {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds the %d-item limit", len(body.RequestIDs), maxBatchItems)
		return
	}
	rt, tableVer, ok := s.resolve(w, r, tol, obj, body.DeadlineMS)
	if !ok {
		return
	}

	e := batchEncoders.Get().(*batchEncoder)
	defer batchEncoders.Put(e)
	e.reqs = e.reqs[:0]
	for _, id := range body.RequestIDs {
		req, ok := s.lookup(w, id)
		if !ok {
			return
		}
		e.reqs = append(e.reqs, req)
	}

	// The batch is a pre-formed window: admitted as one unit, dispatched
	// as one DoBatch.
	g, err := s.admitWindow(len(e.reqs), rt.ticket)
	if err == nil {
		e.outs, e.errs, err = s.disp.DoBatch(r.Context(), e.reqs, g.Ticket, e.outs, e.errs)
		g.Release()
	}
	if err != nil {
		s.renderFailure(w, r, rt.ticket, err)
		return
	}
	if d, ok := g.Served.(resolved); ok {
		rt = d
	}

	policy := rt.ticket.Policy.String()
	resp := api.DispatchBatchResult{Items: e.items[:0]}
	for i := range e.outs {
		var item api.DispatchBatchItem
		if e.errs[i] != nil {
			item.Error = e.errs[i].Error()
			resp.Failed++
		} else {
			item.DispatchResult = dispatchResult(e.reqs[i], &e.outs[i], &rt, policy)
		}
		resp.Items = append(resp.Items, item)
	}
	e.items = resp.Items[:0]

	e.buf.Reset()
	if err := e.enc.Encode(resp); err != nil {
		httpError(w, http.StatusInternalServerError, "encode batch: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Toltiers-Policy", policy)
	w.Header().Set("X-Toltiers-Table-Version", strconv.FormatInt(tableVer, 10))
	_, _ = w.Write(e.buf.Bytes())
}
