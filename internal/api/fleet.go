package api

// Fleet wire types: the control-plane API between the front tier and
// its worker nodes (ttserver -join).
//
//	POST /fleet/register   FleetRegisterRequest  -> FleetRegisterResponse
//	POST /fleet/heartbeat  FleetHeartbeatRequest -> FleetHeartbeatResponse
//	POST /fleet/deregister FleetHeartbeatRequest -> 204
//	GET  /fleet/snapshot   -> internal/state snapshot stream (matrix +
//	                          rule tables; X-Toltiers-Table-Version header)
//	GET  /fleet            -> FleetStatus
//
// Tables reach a worker only by pull: a register or heartbeat answer
// names the fleet's fenced table_version, and a worker below it pulls
// GET /fleet/snapshot. The front tier learns a worker's version only
// from that worker's own register and heartbeat reports.

// FleetRegisterRequest announces a worker to the front tier: the name
// it leases, the base URL the router dispatches to, and the rule-table
// version it currently serves.
type FleetRegisterRequest struct {
	Name         string `json:"name"`
	BaseURL      string `json:"base_url"`
	TableVersion int64  `json:"table_version"`
}

// FleetRegisterResponse grants the liveness lease and names the fleet's
// fenced table version; a worker below it pulls the snapshot.
type FleetRegisterResponse struct {
	LeaseMS      int64 `json:"lease_ms"`
	TableVersion int64 `json:"table_version"`
}

// FleetHeartbeatRequest renews a worker's lease (and doubles as the
// deregister body).
type FleetHeartbeatRequest struct {
	Name         string `json:"name"`
	TableVersion int64  `json:"table_version"`
}

// FleetHeartbeatResponse acknowledges a renewal and, like the register
// answer, names the fleet's fenced table version. Known=false means the
// front tier no longer holds the lease (it expired, the worker
// deregistered, or the front tier restarted); the worker must
// re-register.
type FleetHeartbeatResponse struct {
	LeaseMS      int64 `json:"lease_ms"`
	TableVersion int64 `json:"table_version"`
	Known        bool  `json:"known"`
}

// FleetWorker is one leased worker in the fleet status: identity, the
// table version its own last register or heartbeat reported, the
// router's health/latency accounting for it, and its lease runway. The
// front tier routes to it only while it reports a version the front
// tier holds (see internal/fleet).
type FleetWorker struct {
	Name         string `json:"name"`
	BaseURL      string `json:"base_url"`
	TableVersion int64  `json:"table_version"`
	// Requests counts dispatches the router completed on this worker;
	// Failures its transport/5xx errors; FailedOver the requests that
	// erred here and were transparently retried on a sibling.
	Requests   int64 `json:"requests"`
	Failures   int64 `json:"failures"`
	FailedOver int64 `json:"failed_over"`
	InFlight   int64 `json:"in_flight"`
	// MeanLatencyMS / P95LatencyMS are router-observed round-trip
	// latencies to this worker (proxy overhead included).
	MeanLatencyMS    float64 `json:"mean_latency_ms"`
	P95LatencyMS     float64 `json:"p95_latency_ms"`
	LeaseRemainingMS int64   `json:"lease_remaining_ms"`
}

// FleetStatus is GET /fleet: the fenced table version and every leased
// worker, routed or not. Proxied and LocalFallback count front-tier
// dispatches routed to workers vs served locally because no worker was
// routable (or every candidate failed).
type FleetStatus struct {
	TableVersion  int64         `json:"table_version"`
	LeaseMS       int64         `json:"lease_ms"`
	Workers       []FleetWorker `json:"workers"`
	Proxied       int64         `json:"proxied"`
	LocalFallback int64         `json:"local_fallback"`
}
