// Package client is the Go SDK for a Tolerance Tiers HTTP endpoint: it
// wraps the §IV-A request annotation (Tolerance/Objective headers) in a
// typed API.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/trace"
)

// Client talks to one Tolerance Tiers service endpoint.
type Client struct {
	base   string
	tenant string
	http   *http.Client
}

// New builds a client for the endpoint base URL (e.g.
// "http://localhost:8080"). httpClient may be nil for the default.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, http: httpClient}
}

// WithTenant returns a copy of the client that identifies as tenant id
// on every compute/dispatch request (the Tenant header), which is what
// the server's admission layer keys its token buckets and counters by.
// An empty id addresses the default tenant.
func (c *Client) WithTenant(id string) *Client {
	cp := *c
	cp.tenant = id
	return &cp
}

// annotate sets the §IV-A tier annotation headers (plus the tenant).
// A trace id riding the request context travels in the
// X-Toltiers-Trace header, so the server's flight recorder attributes
// the dispatch to the caller's id — the retry wrappers mint one per
// logical call, making every attempt of a retried request one trace.
func (c *Client) annotate(req *http.Request, tolerance float64, objective rulegen.Objective) {
	req.Header.Set(api.HeaderTolerance, strconv.FormatFloat(tolerance, 'f', -1, 64))
	req.Header.Set(api.HeaderObjective, string(objective))
	if c.tenant != "" {
		req.Header.Set(api.HeaderTenant, c.tenant)
	}
	if id := trace.IDFromContext(req.Context()); id != 0 {
		req.Header.Set(api.HeaderTrace, trace.FormatID(id))
	}
}

// roundTrip is the one HTTP exchange every SDK method makes: JSON-encode
// body (nil sends none), let prepare decorate the request (nil leaves it
// plain), send, turn any status other than want into an *APIError, and
// decode the response into a T. op names the call in errors.
func roundTrip[T any](ctx context.Context, c *Client, op, method, path string, body any, prepare func(*http.Request), want int) (*T, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("client: %s: encode request: %w", op, err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %s: build request: %w", op, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if prepare != nil {
		prepare(req)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", op, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return nil, decodeError(resp)
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: %s: decode response: %w", op, err)
	}
	return &out, nil
}

// get is roundTrip for the plain status reads.
func get[T any](ctx context.Context, c *Client, op, path string) (*T, error) {
	return roundTrip[T](ctx, c, op, http.MethodGet, path, nil, nil, http.StatusOK)
}

// tierCall is roundTrip for the three tier-execution endpoints: a POST
// carrying the §IV-A annotation.
func tierCall[T any](ctx context.Context, c *Client, op, path string, body any, tolerance float64, objective rulegen.Objective) (*T, error) {
	return roundTrip[T](ctx, c, op, http.MethodPost, path, body,
		func(req *http.Request) { c.annotate(req, tolerance, objective) }, http.StatusOK)
}

func deadlineMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Compute sends one annotated request.
func (c *Client) Compute(ctx context.Context, requestID int, tolerance float64, objective rulegen.Objective) (*api.ComputeResult, error) {
	return tierCall[api.ComputeResult](ctx, c, "compute", "/compute",
		api.ComputeRequest{RequestID: requestID}, tolerance, objective)
}

// Dispatch sends one annotated request through the online
// tier-execution runtime (POST /dispatch). deadline is the per-request
// latency budget (0 = none; arming it also arms deadline hedging).
func (c *Client) Dispatch(ctx context.Context, requestID int, tolerance float64, objective rulegen.Objective, deadline time.Duration) (*api.DispatchResult, error) {
	return tierCall[api.DispatchResult](ctx, c, "dispatch", "/dispatch",
		api.DispatchRequest{RequestID: requestID, DeadlineMS: deadlineMS(deadline)}, tolerance, objective)
}

// DispatchBatch sends many annotated corpus requests through the online
// tier-execution runtime in one round trip (POST /dispatch/batch),
// amortizing the HTTP, tier-resolve and runtime transaction costs.
// Items align with requestIDs; a per-item backend failure is reported
// in its item's Error while the rest of the batch completes. deadline
// applies to every item (0 = none).
func (c *Client) DispatchBatch(ctx context.Context, requestIDs []int, tolerance float64, objective rulegen.Objective, deadline time.Duration) (*api.DispatchBatchResult, error) {
	out, err := tierCall[api.DispatchBatchResult](ctx, c, "dispatch batch", "/dispatch/batch",
		api.DispatchBatchRequest{RequestIDs: requestIDs, DeadlineMS: deadlineMS(deadline)}, tolerance, objective)
	if err != nil {
		return nil, err
	}
	if len(out.Items) != len(requestIDs) {
		return nil, fmt.Errorf("client: batch returned %d items for %d requests", len(out.Items), len(requestIDs))
	}
	return out, nil
}

// Telemetry fetches the runtime's online per-tier/per-backend serving
// statistics (GET /telemetry).
func (c *Client) Telemetry(ctx context.Context) (*api.TelemetrySnapshot, error) {
	return get[api.TelemetrySnapshot](ctx, c, "telemetry", "/telemetry")
}

// TelemetryForTenant fetches one tenant's telemetry partition
// (GET /telemetry?tenant=...): the tenant's own per-tier streams and
// per-backend billing share. A tenant the runtime has never served
// returns the zero partition, not an error. The tenant ID must be
// non-empty — anonymous traffic has no partition, only the global
// snapshot.
func (c *Client) TelemetryForTenant(ctx context.Context, tenant string) (*api.TenantTelemetry, error) {
	if tenant == "" {
		return nil, fmt.Errorf("client: empty tenant (anonymous traffic has no partition; use Telemetry)")
	}
	return get[api.TenantTelemetry](ctx, c, "tenant telemetry", "/telemetry?tenant="+url.QueryEscape(tenant))
}

// CancelRules cancels the node's running rule-generation job
// (DELETE /rules/generate). The job winds down asynchronously; poll
// RulesStatus until it leaves "cancelling" — normally for "cancelled",
// or for "done" when the sweep finished before the cancel landed (a
// lost race; the job's tables stand).
func (c *Client) CancelRules(ctx context.Context) error {
	_, err := roundTrip[json.RawMessage](ctx, c, "cancel rules", http.MethodDelete, "/rules/generate", nil, nil, http.StatusAccepted)
	return err
}

// Tiers lists the offered tiers.
func (c *Client) Tiers(ctx context.Context) ([]api.TierInfo, error) {
	out, err := get[[]api.TierInfo](ctx, c, "tiers", "/tiers")
	if err != nil {
		return nil, err
	}
	return *out, nil
}

// GenerateRules asks the node to regenerate its routing tables (POST
// /rules/generate). The job runs asynchronously; poll RulesStatus for
// completion.
func (c *Client) GenerateRules(ctx context.Context, genReq api.RuleGenRequest) (*api.RuleGenAccepted, error) {
	return roundTrip[api.RuleGenAccepted](ctx, c, "generate rules", http.MethodPost, "/rules/generate", genReq, nil, http.StatusAccepted)
}

// RulesStatus reports the state of the node's rule-generation job
// (GET /rules/status).
func (c *Client) RulesStatus(ctx context.Context) (*api.RuleGenStatus, error) {
	return get[api.RuleGenStatus](ctx, c, "rules status", "/rules/status")
}

// Drift fetches the node's drift-monitor status: detector states per
// tier and backend, confirmed shift events, the heal history (every
// completed self-healing attempt with its canary verdict), and the
// self-healing loop's progress (GET /drift).
func (c *Client) Drift(ctx context.Context) (*api.DriftStatus, error) {
	return get[api.DriftStatus](ctx, c, "drift", "/drift")
}

// SetDriftConfig replaces the node's drift-monitor configuration
// (POST /drift/config) — enabling detection, arming the self-healing
// auto-reprofile loop, or retuning the detectors; every detector resets
// to the new parameters. It returns the resulting status.
func (c *Client) SetDriftConfig(ctx context.Context, cfg api.DriftConfig) (*api.DriftStatus, error) {
	return roundTrip[api.DriftStatus](ctx, c, "set drift config", http.MethodPost, "/drift/config", cfg, nil, http.StatusOK)
}

// Fleet fetches the front tier's fleet status: the fenced table
// version, the live workers with their health/latency accounting, and
// the latest rolling table push (GET /fleet).
// Single-node servers and workers answer 404.
func (c *Client) Fleet(ctx context.Context) (*api.FleetStatus, error) {
	return get[api.FleetStatus](ctx, c, "fleet", "/fleet")
}

// Admission fetches the node's admission-layer status: configuration,
// brownout state, the in-flight gauge, and per-tenant
// accept/shed/downgrade counters (GET /admission).
func (c *Client) Admission(ctx context.Context) (*api.AdmissionStatus, error) {
	return get[api.AdmissionStatus](ctx, c, "admission", "/admission")
}

// SetAdmissionConfig replaces the node's admission configuration
// (POST /admission/config) — enabling the layer, retuning tenant
// bucket rates, or arming the brownout controller. Counters and
// brownout state carry over. It returns the resulting status.
func (c *Client) SetAdmissionConfig(ctx context.Context, cfg api.AdmissionConfig) (*api.AdmissionStatus, error) {
	return roundTrip[api.AdmissionStatus](ctx, c, "set admission config", http.MethodPost, "/admission/config", cfg, nil, http.StatusOK)
}

// TraceRecent fetches the node's most recent flight-recorder spans
// (GET /trace/recent). tier, tenant and kind filter when non-empty
// (kind is a capture reason: sampled | error | shed | deadline |
// degraded | hedge | slow); n bounds the span count (0 = the server's
// default).
func (c *Client) TraceRecent(ctx context.Context, tier, tenant, kind string, n int) (*api.TraceRecent, error) {
	q := url.Values{}
	if tier != "" {
		q.Set("tier", tier)
	}
	if tenant != "" {
		q.Set("tenant", tenant)
	}
	if kind != "" {
		q.Set("kind", kind)
	}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	path := "/trace/recent"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	return get[api.TraceRecent](ctx, c, "trace recent", path)
}

// Trace fetches one flight-recorder span by its 16-hex trace id — the
// X-Toltiers-Trace value a previous response echoed (GET /trace/{id}).
// The server answers 404 when the ring no longer holds the id (sampled
// out or evicted).
func (c *Client) Trace(ctx context.Context, id string) (*api.TraceSpan, error) {
	return get[api.TraceSpan](ctx, c, "trace", "/trace/"+url.PathEscape(id))
}

// Healthy reports whether the endpoint answers /healthz.
func (c *Client) Healthy(ctx context.Context) error {
	_, err := c.Health(ctx)
	return err
}

// Health fetches the endpoint's /healthz status — notably the served
// corpus size, which load generators use to bound their request IDs.
func (c *Client) Health(ctx context.Context) (*api.HealthStatus, error) {
	return get[api.HealthStatus](ctx, c, "healthz", "/healthz")
}

// APIError is a non-200 response from the service.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's backoff hint on 429/503 admission
	// sheds (0 when the response carried none). The retry policies
	// honor it.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("toltiers api: status %d: %s", e.StatusCode, e.Message)
}

func decodeError(resp *http.Response) error {
	var payload struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	// Drain whatever the diagnostic read left so keep-alive can reuse
	// the connection — a retried call that re-dials on every attempt
	// multiplies load exactly when the server is shedding. Bounded: a
	// body still streaming past the cap is cheaper to abandon.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if err := json.Unmarshal(data, &payload); err != nil || payload.Error == "" {
		payload.Error = string(data)
	}
	return &APIError{
		StatusCode: resp.StatusCode,
		Message:    payload.Error,
		RetryAfter: retryAfterHint(resp.Header),
	}
}

// retryAfterHint parses the server's backoff hint: the
// millisecond-precision X-Toltiers-Retry-After-MS when present, the
// standard Retry-After — integer seconds or the RFC 9110 HTTP-date
// form — otherwise (api.RetryAfterHint).
func retryAfterHint(h http.Header) time.Duration {
	return api.RetryAfterHint(h, time.Now())
}
