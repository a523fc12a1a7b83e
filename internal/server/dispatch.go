package server

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/trace"
)

// The tier-execution path. The paper's API (§IV-A) is one request shape
// — an input plus the Tolerance/Objective annotation — and the tier, not
// the endpoint, decides how it executes. So the node has one staged
// path and three thin adapters over it:
//
//	parse    body into pooled scratch, annotation headers,
//	         then the adapter's api.Decode* of its body shape  (parseCall)
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
//
// What the path executed reads back from GET /telemetry (server.go).

// resolved is a tier as it travels the staged path: the ticket the
// dispatcher executes, plus the rule fields a response renders that the
// ticket only carries folded into its tier key.
type resolved struct {
	tolerance float64 // of the rule, i.e. the tier served
	obj       rulegen.Objective
	policy    string // ticket.Policy as the registry rendered it at install
	ticket    dispatch.Ticket
}

// resolvedTier builds the staged-path view of a registry tier.
func resolvedTier(t *tiers.Tier, obj rulegen.Objective, tenant string, budget time.Duration, canary bool) resolved {
	return resolved{
		tolerance: t.Tolerance,
		obj:       obj,
		policy:    t.Policy,
		ticket: dispatch.Ticket{
			Tier:   t.Key,
			Tenant: tenant,
			Policy: t.Candidate.Policy,
			Budget: budget,
			Canary: canary,
		},
	}
}

// maxBatchItems bounds one POST /dispatch/batch body; larger workloads
// split into multiple batches (the amortization has long flattened out
// by this size).
const maxBatchItems = 4096

// maxCallBody caps the body of a tier-execution call: room for
// maxBatchItems ids of 20 digits with their separators, plus the rest of
// the object. A longer body answers 413.
const maxCallBody = 1<<10 + 24*maxBatchItems

// maxPooledBuf is the largest scratch buffer kept for reuse; one grown
// past it by a rare huge batch is dropped, so the pool cannot pin the
// peak.
const maxPooledBuf = 64 << 10

// scratch is the working memory of one tier-execution call, recycled
// across calls: buf holds the request body and then the rendered
// response, the slices the batch adapter's window.
type scratch struct {
	buf     []byte
	ids     []int
	reqs    []*service.Request
	outs    []dispatch.Outcome
	errs    []error
	items   []api.DispatchBatchItem
	classes []int
}

var scratches = sync.Pool{New: func() any { return &scratch{buf: make([]byte, 0, 1024)} }}

func (sc *scratch) release() {
	if cap(sc.buf) > maxPooledBuf {
		sc.buf = nil
	}
	scratches.Put(sc)
}

// readBody reads the whole request body into sc.buf. A body over
// maxCallBody is answered 413, a failed read 400. (The loop is
// bytes.Buffer.ReadFrom spelled out: through that call the buffer and
// the capped reader escape, two allocations per request.)
func (sc *scratch) readBody(w http.ResponseWriter, r *http.Request) bool {
	body := http.MaxBytesReader(w, r.Body, maxCallBody)
	b := sc.buf[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == nil {
			continue
		}
		sc.buf = b
		if err == io.EOF {
			return true
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds the %d-byte limit", tooLarge.Limit)
		} else {
			badBody(w, err)
		}
		return false
	}
}

// parseCall is the parse stage: the request body into sc.buf, then the
// §IV-A annotation headers (a missing Objective defaults to
// response-time). A front tier offers the call to its worker fleet in
// between (path non-empty; /compute is never offered): the fleet is the
// capacity, the local path the fallback when no worker can serve. !ok
// means the response is written — an error, or a worker's answer. The
// adapter decodes sc.buf into its own request shape.
func (s *Server) parseCall(w http.ResponseWriter, r *http.Request, sc *scratch, path string) (float64, rulegen.Objective, bool) {
	if !sc.readBody(w, r) {
		return 0, "", false
	}
	// Proxy is done with the body when it returns, so the pooled bytes
	// serve the local fallback unchanged.
	if path != "" && s.pool != nil && s.pool.Proxy(r.Context(), w, r.Header, path, sc.buf) {
		return 0, "", false
	}
	tolHeader := r.Header.Get(api.HeaderTolerance)
	if tolHeader == "" {
		httpError(w, http.StatusBadRequest, "missing Tolerance header")
		return 0, "", false
	}
	tol, err := strconv.ParseFloat(tolHeader, 64)
	if err != nil || tol < 0 {
		httpError(w, http.StatusBadRequest, "invalid Tolerance header %q", tolHeader)
		return 0, "", false
	}
	objHeader := r.Header.Get(api.HeaderObjective)
	if objHeader == "" {
		objHeader = string(rulegen.MinimizeLatency)
	}
	obj, err := rulegen.ParseObjective(objHeader)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid Objective header %q", objHeader)
		return 0, "", false
	}
	return tol, obj, true
}

// badBody answers a body the endpoint's decoder refused.
func badBody(w http.ResponseWriter, err error) {
	httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
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
	tenant := r.Header.Get(api.HeaderTenant)
	tier, isCanary, tableVer, err := s.resolveRule(tol, obj, tenant)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return resolved{}, 0, false
	}
	return resolvedTier(tier, obj, tenant, budget, isCanary), tableVer, true
}

// lookup finds a corpus request by ID; a miss is already answered 404.
func (s *Server) lookup(w http.ResponseWriter, id int) (*service.Request, bool) {
	req, found := s.byID[id]
	if !found {
		httpError(w, http.StatusNotFound, "request_id %d not in corpus", id)
	}
	return req, found
}

// traceContext is the request's context carrying its trace id. The id
// travels in the X-Toltiers-Trace request header — the client's, or the
// one Instrument minted — so only the calls that dispatch pay for a
// context, and nobody for a cloned request.
func traceContext(r *http.Request) context.Context {
	if id := traceID(r); id != 0 {
		return trace.ContextWithID(r.Context(), id)
	}
	return r.Context()
}

// traceID is the request's trace id, 0 when it carries none.
func traceID(r *http.Request) uint64 {
	id, _ := trace.ParseID(r.Header.Get(api.HeaderTrace))
	return id
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
		s.rec.RecordShed(traceID(r), t.Tier, t.Tenant, shedAdmitCode(sh.dec.Verdict))
	}
	sh.write(w)
}

// dispatchResult is the render stage's wire struct: one dispatched
// outcome under the tier that served it. A vision answer's Class is the
// caller's to attach, so that the int it points at can live on the
// caller's stack or in its scratch. /compute answers with the embedded
// ComputeResult alone.
func dispatchResult(req *service.Request, out *dispatch.Outcome, rt *resolved) api.DispatchResult {
	res := api.DispatchResult{
		ComputeResult: api.ComputeResult{
			Confidence: out.Result.Confidence,
			Tier:       rt.tolerance,
			Objective:  string(rt.obj),
			Policy:     rt.policy,
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
	}
	return res
}

// single runs one corpus request down the staged path for the two
// single-request adapters and answers it: the whole DispatchResult, or
// for /compute the embedded ComputeResult alone, each with its
// accounting headers.
func (s *Server) single(w http.ResponseWriter, r *http.Request, sc *scratch, tol float64, obj rulegen.Objective, id int, deadlineMS float64, computeOnly bool) {
	rt, tableVer, ok := s.resolve(w, r, tol, obj, deadlineMS)
	if !ok {
		return
	}
	req, ok := s.lookup(w, id)
	if !ok {
		return
	}
	out, rt, err := s.dispatchOne(traceContext(r), req, rt)
	if err != nil {
		s.renderFailure(w, r, rt.ticket, err)
		return
	}
	res, class := dispatchResult(req, &out, &rt), out.Result.Class
	if req.Utterance == nil {
		res.Class = &class // both stay on this stack
	}
	if computeOnly {
		sc.buf, err = api.AppendComputeResult(sc.buf[:0], &res.ComputeResult)
	} else {
		sc.buf, err = api.AppendDispatchResult(sc.buf[:0], &res)
	}
	if err != nil {
		// Nothing is written yet, so an answer that cannot be rendered
		// (a backend reporting a non-finite number) is a clean 500
		// rather than a 200 with an empty body.
		httpError(w, http.StatusInternalServerError, "encode result: %v", err)
		return
	}
	// The header strings come from rt and out, not from res: a string
	// of res handed on would take res, and with it class, to the heap.
	var num [2][24]byte // on the stack, where FormatFloat's scratch is not
	latency := string(strconv.AppendFloat(num[0][:0], res.LatencyMS, 'f', 3, 64))
	if computeOnly {
		writeJSON(w, sc.buf,
			api.HeaderPolicy, rt.policy,
			api.HeaderLatencyMS, latency,
			api.HeaderCostUSD, string(strconv.AppendFloat(num[1][:0], res.CostUSD, 'f', 6, 64)))
	} else {
		writeJSON(w, sc.buf,
			api.HeaderPolicy, rt.policy,
			api.HeaderBackend, out.Backend,
			api.HeaderLatencyMS, latency,
			api.HeaderTableVersion, strconv.FormatInt(tableVer, 10))
	}
}

// writeJSON sends a rendered body with its headers, given as name/value
// pairs under canonical names (internal/api's, or Content-Length). The values
// share one backing array and index the map directly: one allocation,
// no canonicalisation pass.
func writeJSON(w http.ResponseWriter, body []byte, kv ...string) {
	h := w.Header()
	vals := make([]string, 1+len(kv)/2)
	vals[0] = api.ContentTypeJSON
	h[api.HeaderContentType] = vals[0:1:1]
	for i := 1; i < len(vals); i++ {
		vals[i] = kv[2*i-1]
		h[kv[2*i-2]] = vals[i : i+1 : i+1]
	}
	_, _ = w.Write(body)
}

// handleCompute is the paper's §IV-A endpoint: the staged path with no
// deadline (so no hedging), answered with the ComputeResult fields and
// the latency/cost accounting headers. On a coalescing node it rides
// the coalescer like /dispatch — the two endpoints build the same ticket
// for the same annotation, so their requests share windows.
func (s *Server) handleCompute(w http.ResponseWriter, r *http.Request) {
	sc := scratches.Get().(*scratch)
	defer sc.release()
	tol, obj, ok := s.parseCall(w, r, sc, "")
	if !ok {
		return
	}
	var body api.ComputeRequest
	if err := api.DecodeCompute(sc.buf, &body); err != nil {
		badBody(w, err)
		return
	}
	s.single(w, r, sc, tol, obj, body.RequestID, 0, true)
}

func (s *Server) handleDispatch(w http.ResponseWriter, r *http.Request) {
	sc := scratches.Get().(*scratch)
	defer sc.release()
	tol, obj, ok := s.parseCall(w, r, sc, "/dispatch")
	if !ok {
		return
	}
	var body api.DispatchRequest
	if err := api.DecodeDispatch(sc.buf, &body); err != nil {
		badBody(w, err)
		return
	}
	s.single(w, r, sc, tol, obj, body.RequestID, body.DeadlineMS, false)
}

func (s *Server) handleDispatchBatch(w http.ResponseWriter, r *http.Request) {
	sc := scratches.Get().(*scratch)
	defer sc.release()
	tol, obj, ok := s.parseCall(w, r, sc, "/dispatch/batch")
	if !ok {
		return
	}
	body := api.DispatchBatchRequest{RequestIDs: sc.ids[:0]}
	err := api.DecodeDispatchBatch(sc.buf, &body)
	if body.RequestIDs != nil {
		sc.ids = body.RequestIDs[:0]
	}
	if err != nil {
		badBody(w, err)
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

	sc.reqs = sc.reqs[:0]
	for _, id := range body.RequestIDs {
		req, ok := s.lookup(w, id)
		if !ok {
			return
		}
		sc.reqs = append(sc.reqs, req)
	}

	// The batch is a pre-formed window: admitted as one unit, dispatched
	// as one DoBatch.
	g, err := s.admitWindow(len(sc.reqs), rt.ticket)
	if err == nil {
		sc.outs, sc.errs, err = s.disp.DoBatch(traceContext(r), sc.reqs, g.Ticket, sc.outs, sc.errs)
		g.Release()
	}
	if err != nil {
		s.renderFailure(w, r, rt.ticket, err)
		return
	}
	if d, ok := g.Served.(resolved); ok {
		rt = d
	}

	resp := api.DispatchBatchResult{Items: sc.items[:0]}
	sc.classes = slices.Grow(sc.classes[:0], len(sc.outs))[:len(sc.outs)]
	for i := range sc.outs {
		var item api.DispatchBatchItem
		if sc.errs[i] != nil {
			item.Error = sc.errs[i].Error()
			resp.Failed++
		} else {
			item.DispatchResult = dispatchResult(sc.reqs[i], &sc.outs[i], &rt)
			if sc.reqs[i].Utterance == nil {
				sc.classes[i] = sc.outs[i].Result.Class
				item.Class = &sc.classes[i]
			}
		}
		resp.Items = append(resp.Items, item)
	}
	sc.items = resp.Items[:0]

	if sc.buf, err = api.AppendDispatchBatchResult(sc.buf[:0], &resp); err != nil {
		httpError(w, http.StatusInternalServerError, "encode batch: %v", err)
		return
	}
	// A body past net/http's 2 KB buffer would otherwise leave chunked.
	writeJSON(w, sc.buf,
		api.HeaderPolicy, rt.policy,
		api.HeaderTableVersion, strconv.FormatInt(tableVer, 10),
		"Content-Length", strconv.Itoa(len(sc.buf)))
}
