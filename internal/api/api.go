// Package api defines the wire types of the Tolerance Tiers HTTP API,
// shared by the server and the Go client SDK.
package api

// ComputeRequest is the JSON body of POST /compute.
type ComputeRequest struct {
	// RequestID selects the corpus input to process.
	RequestID int `json:"request_id"`
}

// ComputeResult is the JSON response of POST /compute.
type ComputeResult struct {
	// Transcript (ASR) or Class (vision) carries the payload.
	Transcript []int `json:"transcript,omitempty"`
	Class      *int  `json:"class,omitempty"`
	// Confidence is the serving policy's result confidence.
	Confidence float64 `json:"confidence"`
	// Tier echoes the resolved tier tolerance.
	Tier      float64 `json:"tier"`
	Objective string  `json:"objective"`
	Policy    string  `json:"policy"`
	// LatencyMS is the simulated service-side processing latency.
	LatencyMS float64 `json:"latency_ms"`
	// CostUSD is the invocation's consumer-side price.
	CostUSD float64 `json:"cost_usd"`
	// Escalated reports whether the ensemble escalated.
	Escalated bool `json:"escalated"`
}

// TierInfo describes one offered tier in GET /tiers.
type TierInfo struct {
	Objective string  `json:"objective"`
	Tolerance float64 `json:"tolerance"`
	Policy    string  `json:"policy"`
}

// HealthStatus is the JSON response of GET /healthz.
type HealthStatus struct {
	Status string `json:"status"`
	// Corpus is the size of the served request corpus (request IDs are
	// corpus IDs; load generators size their traces from this).
	Corpus     int    `json:"corpus"`
	Domain     string `json:"domain"`
	Objectives int    `json:"objs"`
	Version    string `json:"version"`
}

// DispatchRequest is the JSON body of POST /dispatch — the runtime
// tier-execution path. The tier annotation travels in the Tolerance and
// Objective headers, like /compute.
type DispatchRequest struct {
	// RequestID selects the corpus input to process.
	RequestID int `json:"request_id"`
	// DeadlineMS is the per-request latency budget in milliseconds.
	// 0 disables the deadline (and with it, hedging).
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
}

// DispatchResult is the JSON response of POST /dispatch.
type DispatchResult struct {
	ComputeResult
	// Backend names the backend whose result was returned.
	Backend string `json:"backend"`
	// Started counts backends that began processing (1 or 2).
	Started int `json:"started"`
	// Hedged reports that the secondary was fired early because the
	// primary's observed latency quantile would not make the deadline.
	Hedged bool `json:"hedged,omitempty"`
	// DeadlineExceeded reports that the response latency overran the
	// request's budget.
	DeadlineExceeded bool `json:"deadline_exceeded,omitempty"`
	// Downgraded reports the admission layer's brownout controller
	// served this request with a cheaper tier's policy than the one its
	// Tolerance header resolved to; the embedded Tier echoes the tier
	// actually served.
	Downgraded bool `json:"downgraded,omitempty"`
	// IaaSUSD is the provider-side node-time cost of the dispatch.
	IaaSUSD float64 `json:"iaas_usd"`
}

// DispatchBatchRequest is the JSON body of POST /dispatch/batch: many
// corpus requests dispatched through one resolved tier in a single
// round trip, amortizing the HTTP, resolve, limiter and telemetry
// costs. The tier annotation travels in the Tolerance and Objective
// headers, like /dispatch; every request ID must be in the corpus (the
// batch is rejected whole otherwise, matching /dispatch's 404).
type DispatchBatchRequest struct {
	// RequestIDs select the corpus inputs to process, in order.
	RequestIDs []int `json:"request_ids"`
	// DeadlineMS is the per-request latency budget in milliseconds,
	// applied to every item (0 disables deadlines and hedging).
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
}

// DispatchBatchItem is one item's result in a batch response: the
// DispatchResult it would have received from POST /dispatch, or an
// error message when its backend legs failed (other items still ran).
type DispatchBatchItem struct {
	DispatchResult
	Error string `json:"error,omitempty"`
}

// DispatchBatchResult is the JSON response of POST /dispatch/batch.
// Items align with the request's RequestIDs.
type DispatchBatchResult struct {
	Items []DispatchBatchItem `json:"items"`
	// Failed counts items that carry an Error.
	Failed int `json:"failed,omitempty"`
}

// TierTelemetry is one tier's online serving statistics in
// GET /telemetry.
type TierTelemetry struct {
	// Tier keys the tier as "objective/tolerance".
	Tier     string `json:"tier"`
	Requests int64  `json:"requests"`
	// Escalations, Hedges, DeadlineMisses and EscalationFailures count
	// runtime events; Graded counts requests whose error was known.
	Escalations        int64 `json:"escalations"`
	Hedges             int64 `json:"hedges,omitempty"`
	DeadlineMisses     int64 `json:"deadline_misses,omitempty"`
	EscalationFailures int64 `json:"escalation_failures,omitempty"`
	Graded             int64 `json:"graded"`
	// MeanErr is the online mean task error over graded requests.
	MeanErr float64 `json:"mean_err"`
	// MeanLatencyMS / MaxLatencyMS summarize reported response latency.
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	MaxLatencyMS  float64 `json:"max_latency_ms"`
	// MeanCostUSD is the mean consumer-side invocation cost.
	MeanCostUSD float64 `json:"mean_cost_usd"`
}

// BackendTelemetry is one backend's online statistics in GET /telemetry.
type BackendTelemetry struct {
	Backend     string `json:"backend"`
	Invocations int64  `json:"invocations"`
	// MeanLatencyMS / P95LatencyMS summarize observed backend latency
	// (P95 is the hedging estimate; 0 until enough observations).
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	P95LatencyMS  float64 `json:"p95_latency_ms"`
	// InvocationUSD / IaaSUSD are the backend's accumulated billing
	// totals (IaaS credits early termination of cancelled hedges).
	InvocationUSD float64 `json:"invocation_usd"`
	IaaSUSD       float64 `json:"iaas_usd"`
}

// TenantTelemetry is one tenant's telemetry partition: the JSON
// response of GET /telemetry?tenant=... and one row of the snapshot's
// per-tenant rollup. Backends lists only the backends the tenant's
// traffic touched, with the tenant's own billing share; P95LatencyMS is
// always 0 here — the hedging estimate is a dispatcher-global order
// statistic, not a per-tenant one.
type TenantTelemetry struct {
	Tenant   string             `json:"tenant"`
	Requests int64              `json:"requests"`
	Failures int64              `json:"failures,omitempty"`
	Tiers    []TierTelemetry    `json:"tiers"`
	Backends []BackendTelemetry `json:"backends"`
}

// TelemetrySnapshot is the JSON response of GET /telemetry.
type TelemetrySnapshot struct {
	// Requests counts dispatches since the runtime started.
	Requests int64 `json:"requests"`
	// Failures counts dispatches that returned no result at all.
	Failures int64              `json:"failures,omitempty"`
	Tiers    []TierTelemetry    `json:"tiers"`
	Backends []BackendTelemetry `json:"backends"`
	// Tenants is the per-tenant rollup: every named tenant's partition,
	// sorted by tenant ID. Anonymous (tenant-less) traffic appears only
	// in the global totals above.
	Tenants []TenantTelemetry `json:"tenants"`
}

// RuleGenRequest is the JSON body of POST /rules/generate: start a
// regeneration of the serving node's rule tables. Zero values select
// the server's defaults; one job runs at a time.
type RuleGenRequest struct {
	// Objectives to generate tables for (default: both).
	Objectives []string `json:"objectives,omitempty"`
	// Confidence overrides the bootstrap confidence (default 0.999).
	Confidence float64 `json:"confidence,omitempty"`
	// MinTrials / MaxTrials / ThresholdPoints override the bootstrap
	// loop bounds and per-policy threshold grid (0 = defaults) — a
	// drift-triggered regeneration on a serving node can trade sweep
	// depth for turnaround.
	MinTrials       int `json:"min_trials,omitempty"`
	MaxTrials       int `json:"max_trials,omitempty"`
	ThresholdPoints int `json:"threshold_points,omitempty"`
	// Step and MaxTolerance define the tolerance grid (defaults 0.01
	// and 0.10; MaxTolerance at most 1, at most 10 001 grid points).
	Step         float64 `json:"step,omitempty"`
	MaxTolerance float64 `json:"max_tolerance,omitempty"`
	// Apply atomically swaps the serving registry to the generated
	// tables on success; otherwise the job only reports.
	Apply bool `json:"apply,omitempty"`
}

// RuleGenAccepted is the 202 response of POST /rules/generate.
type RuleGenAccepted struct {
	JobID     int    `json:"job_id"`
	StatusURL string `json:"status_url"`
}

// RuleGenStatus is the JSON response of GET /rules/status.
type RuleGenStatus struct {
	// State is idle | running | cancelling | done | failed | cancelled.
	State string `json:"state"`
	JobID int    `json:"job_id,omitempty"`
	// Done / Total count bootstrapped candidate policies.
	Done       int      `json:"done"`
	Total      int      `json:"total"`
	Objectives []string `json:"objectives,omitempty"`
	ElapsedMS  float64  `json:"elapsed_ms,omitempty"`
	// Applied reports whether the serving registry was swapped.
	Applied bool   `json:"applied,omitempty"`
	Error   string `json:"error,omitempty"`
	// MeanTrials / MaxTrials summarize the per-candidate bootstrap
	// trial distribution of the finished sweep.
	MeanTrials float64 `json:"mean_trials,omitempty"`
	MaxTrials  float64 `json:"max_trials,omitempty"`
	// Drift reports the job was started by the drift monitor's
	// self-healing loop (re-profiled backends, then regenerated).
	Drift bool `json:"drift,omitempty"`
}

// TenantAdmission is one tenant's admission counters in GET /admission.
type TenantAdmission struct {
	Tenant   string `json:"tenant"`
	Admitted int64  `json:"admitted"`
	// ShedRate / ShedCapacity / ShedDeadline count rejections by cause:
	// token bucket (429), slot exhaustion (503), provably unmeetable
	// deadline (503).
	ShedRate     int64 `json:"shed_rate,omitempty"`
	ShedCapacity int64 `json:"shed_capacity,omitempty"`
	ShedDeadline int64 `json:"shed_deadline,omitempty"`
	// Downgraded counts admissions served under brownout with the
	// cheaper tier's policy (a subset of Admitted).
	Downgraded int64 `json:"downgraded,omitempty"`
}

// AdmissionStatus is the JSON response of GET /admission.
type AdmissionStatus struct {
	Config AdmissionConfig `json:"config"`
	// State is disabled | normal | brownout.
	State string `json:"state"`
	// InFlight is the current admitted-but-unfinished dispatch count.
	InFlight int64 `json:"in_flight"`
	// Fleet-wide counters (sums of the per-tenant ones).
	Admitted     int64 `json:"admitted"`
	ShedRate     int64 `json:"shed_rate,omitempty"`
	ShedCapacity int64 `json:"shed_capacity,omitempty"`
	ShedDeadline int64 `json:"shed_deadline,omitempty"`
	Downgraded   int64 `json:"downgraded,omitempty"`
	// BrownoutEngaged / BrownoutReleased count controller transitions.
	BrownoutEngaged  int64 `json:"brownout_engaged,omitempty"`
	BrownoutReleased int64 `json:"brownout_released,omitempty"`
	// Tenants lists per-tenant counters, sorted by tenant ID.
	Tenants []TenantAdmission `json:"tenants,omitempty"`
}

// DriftTierStatus is one tier's detector state in GET /drift.
type DriftTierStatus struct {
	Tier string `json:"tier"`
	// Requests counts observed dispatches (Failures of them produced
	// no result and enter the error stream as maximal observations);
	// Windows counts completed detector windows.
	Requests int64 `json:"requests"`
	Failures int64 `json:"failures,omitempty"`
	Windows  int64 `json:"windows"`
	// MeanErr / MeanLatencyMS are the latest completed window's means.
	MeanErr       float64 `json:"mean_err"`
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	// BaselineLatencyMS is the frozen warmup latency baseline the
	// relative tests compare against.
	BaselineLatencyMS float64 `json:"baseline_latency_ms,omitempty"`
	// ErrPH / LatPH / ErrCusum / LatCusum are the current test
	// statistics (compare against the configured thresholds).
	ErrPH    float64 `json:"err_ph"`
	LatPH    float64 `json:"lat_ph"`
	ErrCusum float64 `json:"err_cusum"`
	LatCusum float64 `json:"lat_cusum"`
	// Alarmed reports an uncollected alarm on this tier; Reasons names
	// the detectors that fired.
	Alarmed bool     `json:"alarmed,omitempty"`
	Reasons []string `json:"reasons,omitempty"`
}

// DriftBackendStatus is one backend's quantile-shift state in
// GET /drift.
type DriftBackendStatus struct {
	Backend string `json:"backend"`
	// BaselineP95MS is the profiled reference; ObservedP95MS the
	// runtime's latest hedging estimate (0 until enough samples). Both
	// are taken at the dispatcher's configured hedge quantile (default
	// 0.95, hence the field names).
	BaselineP95MS float64 `json:"baseline_p95_ms,omitempty"`
	ObservedP95MS float64 `json:"observed_p95_ms,omitempty"`
	// Strikes counts consecutive checks beyond the tolerated ratio.
	Strikes int  `json:"strikes,omitempty"`
	Alarmed bool `json:"alarmed,omitempty"`
}

// DriftEvent is one confirmed shift in GET /drift.
type DriftEvent struct {
	// UnixMS is the wall-clock time of the detection.
	UnixMS int64 `json:"unix_ms"`
	// Stream names what shifted: "tier:<objective>/<tolerance>" or
	// "backend:<name>".
	Stream string `json:"stream"`
	// Detector names the test that fired (page-hinkley-err,
	// page-hinkley-latency, cusum-err, cusum-latency, quantile-shift).
	Detector string `json:"detector"`
	// Value is the statistic that crossed Threshold.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
}

// DriftHeal is one completed self-healing attempt in GET /drift —
// the heal history the canary verdict controller appends to on every
// promotion, rejection or failure.
type DriftHeal struct {
	// UnixMS is the wall-clock time the heal finished.
	UnixMS int64 `json:"unix_ms"`
	// Trigger describes the confirmed shift that started the heal
	// (detector and stream of the triggering drift events).
	Trigger string `json:"trigger,omitempty"`
	// JobID is the rule-generation job the heal ran.
	JobID int `json:"job_id,omitempty"`
	// Verdict is promoted | rejected | failed (the re-profile or rule
	// generation itself died before a canary could start).
	Verdict string `json:"verdict"`
	// Promoted reports the healed table now serves all traffic.
	Promoted bool `json:"promoted"`
	// DurationMS is the wall-clock span from trigger to verdict.
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Error carries the failure or rejection detail ("" on promotion).
	Error string `json:"error,omitempty"`
}

// DriftStatus is the JSON response of GET /drift.
type DriftStatus struct {
	Config DriftConfig `json:"config"`
	// State is disabled | watching | triggered (a reprofile job is in
	// flight) | canary (a healed table is serving its trial slice).
	State    string               `json:"state"`
	Tiers    []DriftTierStatus    `json:"tiers,omitempty"`
	Backends []DriftBackendStatus `json:"backends,omitempty"`
	// Events lists the most recent confirmed shifts (bounded history,
	// newest last).
	Events []DriftEvent `json:"events,omitempty"`
	// Heals lists the most recent completed self-healing attempts
	// (bounded history, newest last), each with its canary verdict.
	Heals []DriftHeal `json:"heals,omitempty"`
	// Reprofiles counts self-healing loops completed and applied;
	// LastJobID is the rule-generation job the latest trigger started.
	Reprofiles int64 `json:"reprofiles"`
	LastJobID  int   `json:"last_job_id,omitempty"`
	// LastError reports the most recent self-healing failure ("" when
	// the last trigger profiled and regenerated cleanly).
	LastError string `json:"last_error,omitempty"`
}

// TraceLeg is one executed backend leg of a traced dispatch.
type TraceLeg struct {
	Backend string `json:"backend"`
	// QueueMS is limiter queue wait; ServiceMS the backend's reported
	// service latency.
	QueueMS   float64 `json:"queue_ms,omitempty"`
	ServiceMS float64 `json:"service_ms"`
	// Hedge marks the deadline-forced hedge leg, Escalated a leg run
	// on escalation, Cancelled a hedge leg the confident primary
	// terminated early (billed from its plan).
	Hedge     bool   `json:"hedge,omitempty"`
	Escalated bool   `json:"escalated,omitempty"`
	Cancelled bool   `json:"cancelled,omitempty"`
	Error     string `json:"error,omitempty"`
}

// TraceSpan is one flight-recorder span — the JSON shape of
// GET /trace/{id} and the items of GET /trace/recent.
type TraceSpan struct {
	// ID is the 16-hex trace id (the X-Toltiers-Trace header value).
	ID string `json:"id"`
	// UnixMS is the commit wall clock.
	UnixMS int64  `json:"unix_ms"`
	Tier   string `json:"tier"`
	Tenant string `json:"tenant,omitempty"`
	// Kind is the capture reason: sampled | error | shed | deadline |
	// degraded | hedge | slow.
	Kind string `json:"kind"`
	// Admit is the admission decision: admitted | downgraded |
	// shed-rate | shed-capacity | shed-deadline.
	Admit string `json:"admit,omitempty"`
	// Window is the coalesce window id that flushed the dispatch
	// (0 = not coalesced); ParkMS how long it waited in the window.
	Window uint64  `json:"window,omitempty"`
	ParkMS float64 `json:"park_ms,omitempty"`
	// LatencyMS is the combined reported latency; CostUSD and IaaSUSD
	// the billed invocation and node costs.
	LatencyMS        float64    `json:"latency_ms"`
	CostUSD          float64    `json:"cost_usd"`
	IaaSUSD          float64    `json:"iaas_usd"`
	Hedged           bool       `json:"hedged,omitempty"`
	Escalated        bool       `json:"escalated,omitempty"`
	Degraded         bool       `json:"degraded,omitempty"`
	DeadlineExceeded bool       `json:"deadline_exceeded,omitempty"`
	Error            string     `json:"error,omitempty"`
	Legs             []TraceLeg `json:"legs,omitempty"`
}

// TraceRecent is the JSON response of GET /trace/recent.
type TraceRecent struct {
	Spans []TraceSpan `json:"spans"`
	// Dispatches counts every dispatch the recorder observed (kept or
	// sampled away); Sheds every admission shed it recorded; Committed
	// the spans actually written to the ring, broken down per capture
	// reason in Kinds.
	Dispatches int64            `json:"dispatches"`
	Sheds      int64            `json:"sheds,omitempty"`
	Committed  int64            `json:"committed"`
	Kinds      map[string]int64 `json:"kinds,omitempty"`
}
