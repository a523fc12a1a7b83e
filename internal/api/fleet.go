package api

import "encoding/json"

// Fleet wire types: the control-plane API between the front tier and
// its worker nodes (ttserver -join).
//
//	POST /fleet/register   FleetRegisterRequest  -> FleetRegisterResponse
//	POST /fleet/heartbeat  FleetHeartbeatRequest -> FleetHeartbeatResponse
//	POST /fleet/deregister FleetHeartbeatRequest -> 204
//	GET  /fleet/snapshot   -> internal/state snapshot stream (matrix +
//	                          rule tables; X-Toltiers-Table-Version header)
//	GET  /fleet            -> FleetStatus
//	POST /fleet/table      FleetTableUpdate -> FleetTableAck   (on workers)

// FleetRegisterRequest announces a worker to the front tier: the name
// it leases, the base URL the router dispatches to, and the rule-table
// version it currently serves.
type FleetRegisterRequest struct {
	Name         string `json:"name"`
	BaseURL      string `json:"base_url"`
	TableVersion int64  `json:"table_version"`
}

// FleetRegisterResponse grants the liveness lease. Resync tells the
// worker its rule tables are not at the fleet's fenced version (it
// joined mid-promotion, or the front tier restarted): the worker must
// re-pull GET /fleet/snapshot and install it before relying on its
// tables matching the fleet.
type FleetRegisterResponse struct {
	LeaseMS      int64 `json:"lease_ms"`
	TableVersion int64 `json:"table_version"`
	Resync       bool  `json:"resync,omitempty"`
}

// FleetHeartbeatRequest renews a worker's lease (and doubles as the
// deregister body).
type FleetHeartbeatRequest struct {
	Name         string `json:"name"`
	TableVersion int64  `json:"table_version"`
}

// FleetHeartbeatResponse acknowledges a renewal. Known=false means the
// front tier no longer holds the lease (it expired, the worker was
// evicted after a failed table push, or the front tier restarted); the
// worker must re-register.
type FleetHeartbeatResponse struct {
	LeaseMS      int64 `json:"lease_ms"`
	TableVersion int64 `json:"table_version"`
	Known        bool  `json:"known"`
}

// FleetTableUpdate is one rolling-push step: the fenced version and the
// rule tables (each in the rulegen "toltiers-rules-v1" JSON form) the
// worker must serve from the moment it acks. The version fence makes
// pushes idempotent and unreorderable — a worker rejects any version
// at or below the one it already serves with 409.
type FleetTableUpdate struct {
	Version int64             `json:"version"`
	Tables  []json.RawMessage `json:"tables"`
}

// FleetTableAck confirms the worker serves Version.
type FleetTableAck struct {
	Version int64 `json:"version"`
}

// FleetWorker is one live worker in the fleet status: identity, the
// table version it serves, the router's health/latency accounting for
// it, and its lease runway.
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

// FleetRollout reports the most recent rolling table push.
type FleetRollout struct {
	Version int64 `json:"version"`
	Done    bool  `json:"done"`
	// Pushed lists workers that acked the fenced version, in push
	// order; Evicted the workers dropped after a failed push (they
	// re-register and resync from the snapshot endpoint).
	Pushed  []string `json:"pushed,omitempty"`
	Evicted []string `json:"evicted,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// FleetStatus is GET /fleet: the fenced table version, the live
// workers, and the latest rollout. Proxied and
// LocalFallback count front-tier dispatches routed to workers vs
// served locally because no worker was live (or every candidate
// failed).
type FleetStatus struct {
	TableVersion  int64         `json:"table_version"`
	LeaseMS       int64         `json:"lease_ms"`
	Workers       []FleetWorker `json:"workers"`
	Rollout       *FleetRollout `json:"rollout,omitempty"`
	Proxied       int64         `json:"proxied"`
	LocalFallback int64         `json:"local_fallback"`
}
