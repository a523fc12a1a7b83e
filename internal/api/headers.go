package api

// The wire's header names, in canonical MIME spelling so a map
// assignment needs no canonicalisation pass (net/http spells them this
// way on the socket whatever the program wrote).
const (
	// Request annotation (§IV-A).
	HeaderTolerance = "Tolerance"
	HeaderObjective = "Objective"
	HeaderTenant    = "Tenant"

	// HeaderPrefix opens every response header the node adds; the fleet
	// front relays the whole family from a worker's answer.
	HeaderPrefix = "X-Toltiers-"
	// HeaderTrace carries the 16-hex trace id, request and response.
	HeaderTrace = "X-Toltiers-Trace"
	// Accounting headers of a served request.
	HeaderPolicy       = "X-Toltiers-Policy"
	HeaderBackend      = "X-Toltiers-Backend"
	HeaderLatencyMS    = "X-Toltiers-Latency-Ms"
	HeaderCostUSD      = "X-Toltiers-Cost-Usd"
	HeaderTableVersion = "X-Toltiers-Table-Version"
	// HeaderRetryAfterMS is the exact retry hint of a shed, beside the
	// whole-second Retry-After.
	HeaderRetryAfterMS = "X-Toltiers-Retry-After-Ms"
	// HeaderWorker names the fleet worker that served a proxied request.
	HeaderWorker = "X-Toltiers-Worker"

	HeaderContentType = "Content-Type"
	HeaderRetryAfter  = "Retry-After"
	ContentTypeJSON   = "application/json"
)
