// Package toltiers is the public API of the Tolerance Tiers library, a
// reproduction of "One Size Does Not Fit All: Quantifying and Exposing
// the Accuracy-Latency Trade-off in Machine Learning Cloud Service APIs
// via Tolerance Tiers" (Halpern et al., ISPASS 2019).
//
// Tolerance Tiers let MLaaS consumers annotate every request with an
// error tolerance and an optimization objective; the service routes the
// request through an ensemble of model versions that optimizes the
// objective while statistically guaranteeing the tolerance. The library
// contains everything the paper's evaluation needs: a beam-search ASR
// engine and a CNN-zoo image classifier (both simulated substrates, see
// DESIGN.md), per-request profiling, ensemble routing policies, the
// bootstrapped routing-rule generator of the paper's Fig. 7, an HTTP
// front end with the paper's request annotation, and the experiment
// harness regenerating every table and figure.
//
// # Quickstart
//
//	corpus := toltiers.NewSpeechCorpus(2000)
//	matrix := toltiers.Profile(corpus.Service, corpus.Requests)
//	gen := toltiers.NewRuleGenerator(matrix, nil, toltiers.DefaultGeneratorConfig())
//	table := gen.Generate(toltiers.ToleranceGrid(0.10, 0.01), toltiers.MinimizeLatency)
//	registry := toltiers.NewRegistry(corpus.Service, table)
//	result, outcome, rule, err := registry.Handle(corpus.Requests[0], 0.05, toltiers.MinimizeLatency)
//
// See examples/ for runnable scenarios.
package toltiers

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"

	"github.com/toltiers/toltiers/internal/admit"
	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/drift"
	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/fleet"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/server"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/state"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/trace"
	"github.com/toltiers/toltiers/internal/vision"
)

// Core service abstractions.
type (
	// Service bundles a domain's versions and evaluator.
	Service = service.Service
	// Request is one API request.
	Request = service.Request
)

// Matrix is the profiled request x version measurement table.
type Matrix = profile.Matrix

// Routing.
type (
	// PolicyEvaluator is the columnar policy-evaluation kernel: it fuses
	// a policy into flat per-row outcome columns so repeated evaluation
	// over subsets (the Fig.-7 bootstrap, custom sweeps) is a branch-free
	// sum instead of per-row simulation.
	PolicyEvaluator = ensemble.Evaluator
	// PolicyAggregate summarizes a policy over a set of requests.
	PolicyAggregate = ensemble.Aggregate
	// Objective selects what a tier optimizes.
	Objective = rulegen.Objective
	// GeneratorConfig parameterizes the routing-rule generator.
	GeneratorConfig = rulegen.Config
	// RuleGenerator bootstraps candidate configurations (Fig. 7).
	RuleGenerator = rulegen.Generator
	// RuleTable maps tolerances to chosen configurations.
	RuleTable = rulegen.RuleTable
	// Registry is the consumer-facing tier registry.
	Registry = tiers.Registry
	// AuditReport verifies tier guarantees on held-out traffic.
	AuditReport = tiers.AuditReport
)

// Online tier execution (the dispatch runtime).
type (
	// Backend is one live invocable deployment the dispatcher routes
	// tier policies over.
	Backend = dispatch.Backend
	// Dispatcher executes tolerance-tier policies against live backends
	// at request time: escalation on live confidence, per-backend
	// concurrency limiters, deadline-aware hedging, online telemetry.
	// Do dispatches one request; DoBatch amortizes validation, limiter
	// leases and the telemetry transaction over a whole batch with
	// bit-identical per-item outcomes. The steady-state replay path is
	// allocation-free and scales with cores (sharded telemetry,
	// lock-free hedging estimates).
	Dispatcher = dispatch.Dispatcher
	// DispatchOptions parameterizes a Dispatcher (concurrency caps,
	// hedge quantile, telemetry shard count).
	DispatchOptions = dispatch.Options
	// DispatchTicket carries one request's resolved tier through the
	// dispatcher.
	DispatchTicket = dispatch.Ticket
	// DispatchOutcome is the result of dispatching one request.
	DispatchOutcome = dispatch.Outcome
)

// Cross-request coalescing (batch throughput for single-dispatch
// traffic).
type (
	// Coalescer gathers concurrent single dispatches of the same
	// resolved ticket into time/size-windowed DoBatch calls, fanning
	// per-item outcomes back to each waiting caller. An idle coalescer
	// adds zero latency (the zero-wait bypass); a loaded one adds at
	// most one window of queueing delay and pays the ~125 ns/item fused
	// batch path instead of the serial path per request. Outcomes are
	// bit-identical to Dispatcher.Do per request — the equivalence tests
	// in internal/coalesce pin this.
	Coalescer = coalesce.Coalescer
	// CoalesceOptions parameterizes a Coalescer (size trigger, 100–500 µs
	// time trigger, admission gate).
	CoalesceOptions = coalesce.Options
	// CoalesceGrant is a gate's admission of one flush.
	CoalesceGrant = coalesce.Grant
)

// NewCoalescer builds a coalescer in front of a dispatcher. Servers
// built with NewHTTPServer construct one automatically from
// ServerConfig.Coalesce, gated by the node's admission controller.
func NewCoalescer(d *Dispatcher, opts CoalesceOptions) *Coalescer { return coalesce.New(d, opts) }

// Admission & overload control (the QoS layer in front of the
// dispatcher).
type (
	// AdmissionController is the admission-and-overload layer between
	// the HTTP handlers and the dispatcher: per-tenant token buckets,
	// tier-aware priority admission, deadline-aware shedding against
	// the dispatcher's observed latency floors, and a brownout
	// controller that downgrades tolerant traffic under sustained
	// overload. The admit-accept fast path is allocation-free.
	AdmissionController = admit.Controller
	// AdmissionConfig parameterizes an AdmissionController. The zero
	// value is a disabled layer that admits everything untouched.
	AdmissionConfig = admit.Config
	// TenantRate is one tenant's token-bucket parameters.
	TenantRate = admit.Rate
)

// AdmitAccept is the verdict of an admitted AdmissionController decision.
const AdmitAccept = admit.Accept

// Per-dispatch flight recording (the observability layer).
type (
	// TraceRecorder captures one span per dispatch — admit decision,
	// coalesce window, per-leg backend timings — in a fixed-size ring
	// with head sampling plus always-kept tail exemplars (errors,
	// sheds, hedges, deadline misses, beyond-p99 latencies). Hang one
	// on DispatchOptions.Recorder; recording adds zero allocations to
	// the steady-state dispatch path. NewHTTPServer constructs one
	// automatically from ServerConfig.Trace and serves it at
	// GET /trace/recent and GET /trace/{id}.
	TraceRecorder = trace.Recorder
	// TraceOptions parameterizes a TraceRecorder (ring size, sampling
	// stride).
	TraceOptions = trace.Options
	// ServerMetrics is the HTTP middleware's counter registry: request
	// counts by route/status, tier hits, and a fixed-bucket handler
	// latency histogram with p50/p95/p99 (GET /metrics).
	ServerMetrics = server.Metrics
)

// NewTraceRecorder builds a per-dispatch flight recorder. The zero
// TraceOptions value is a 1024-slot ring sampling 1 in 16 dispatches.
func NewTraceRecorder(opts TraceOptions) *TraceRecorder { return trace.New(opts) }

// NewServerMetrics returns an empty middleware counter registry.
func NewServerMetrics() *ServerMetrics { return server.NewMetrics() }

// InstrumentHandler wraps an HTTP handler with request metrics,
// trace-id minting (the X-Toltiers-Trace header), and structured
// access logging; it mounts GET /metrics and prepends handler-level
// families to GET /metrics/prometheus. logger may be nil to disable
// logging.
func InstrumentHandler(next http.Handler, m *ServerMetrics, logger *slog.Logger) http.Handler {
	return server.Instrument(next, m, logger)
}

// Drift detection (the self-healing loop).
type (
	// DriftMonitor watches live dispatch traffic for distribution
	// shifts: per-tier Page–Hinkley and CUSUM tests over windowed
	// error/latency means plus per-backend latency-quantile shift
	// tests against the profiled baseline.
	DriftMonitor = drift.Monitor
	// DriftConfig parameterizes a DriftMonitor.
	DriftConfig = drift.Config
)

// Objectives.
const (
	// MinimizeLatency optimizes mean response time.
	MinimizeLatency = rulegen.MinimizeLatency
	// MinimizeCost optimizes mean invocation cost.
	MinimizeCost = rulegen.MinimizeCost
)

// Request behaviour categories (Fig. 2).
const (
	Unchanged = profile.Unchanged
	Improves  = profile.Improves
	Degrades  = profile.Degrades
	Varies    = profile.Varies
)

// SpeechCorpus bundles the ASR service with an utterance corpus.
type SpeechCorpus = dataset.SpeechCorpus

// VisionCorpus bundles the IC service with an image corpus.
type VisionCorpus = dataset.VisionCorpus

// NewSpeechCorpus builds the default ASR evaluation corpus with n
// utterances (n <= 0 selects the experiments' default size).
func NewSpeechCorpus(n int) *SpeechCorpus {
	return dataset.NewSpeechCorpus(dataset.SpeechCorpusConfig{N: n})
}

// NewVisionCorpus builds the default GPU image-classification corpus
// with n images (n <= 0 selects the experiments' default size).
func NewVisionCorpus(n int) *VisionCorpus {
	return dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: n, Device: vision.GPU})
}

// NewVisionCorpusCPU is NewVisionCorpus on the CPU device profile.
func NewVisionCorpusCPU(n int) *VisionCorpus {
	return dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: n, Device: vision.CPU})
}

// NewCorpusByName builds one of the standard evaluation corpora by its
// CLI name — "asr", "vision", or "vision-cpu" — with n requests (n <= 0
// selects the experiments' default size). It is the shared service
// selector of the ttserver/ttload/ttsweep binaries.
func NewCorpusByName(name string, n int) (*Service, []*Request, error) {
	switch name {
	case "asr":
		c := NewSpeechCorpus(n)
		return c.Service, c.Requests, nil
	case "vision":
		c := NewVisionCorpus(n)
		return c.Service, c.Requests, nil
	case "vision-cpu":
		c := NewVisionCorpusCPU(n)
		return c.Service, c.Requests, nil
	}
	return nil, nil, fmt.Errorf("toltiers: unknown service %q (want asr | vision | vision-cpu)", name)
}

// Profile measures every service version against every request.
func Profile(svc *Service, reqs []*Request) *Matrix { return profile.Build(svc, reqs) }

// NewPolicyEvaluator builds the columnar policy-evaluation kernel over
// the given training rows of m (nil = all rows). Set a policy once,
// then evaluate subsets in a handful of nanoseconds per row; results
// are bit-identical to row-oriented simulation.
func NewPolicyEvaluator(m *Matrix, rows []int) *PolicyEvaluator {
	return ensemble.NewEvaluator(m, rows)
}

// DefaultGeneratorConfig returns the paper's generator settings (99.9%
// confidence, 1/10 bootstrap samples).
func DefaultGeneratorConfig() GeneratorConfig { return rulegen.DefaultConfig() }

// NewRuleGenerator bootstraps all candidate ensemble configurations over
// the training rows of m (nil = all rows).
func NewRuleGenerator(m *Matrix, trainRows []int, cfg GeneratorConfig) *RuleGenerator {
	return rulegen.New(m, trainRows, cfg)
}

// ToleranceGrid returns tolerances 0..max in the given step (the paper
// uses 0.10 and 0.001).
func ToleranceGrid(max, step float64) []float64 { return rulegen.ToleranceGrid(max, step) }

// NewRegistry builds the consumer-facing tier registry from generated
// rule tables.
func NewRegistry(svc *Service, tables ...RuleTable) *Registry {
	return tiers.NewRegistry(svc, tables...)
}

// Audit verifies every rule of the table on the given rows of m.
func Audit(m *Matrix, rows []int, table RuleTable) AuditReport { return tiers.Audit(m, rows, table) }

// NewHTTPHandler exposes a registry over HTTP with the paper's
// Tolerance/Objective request annotation.
func NewHTTPHandler(reg *Registry, reqs []*Request) http.Handler { return server.New(reg, reqs) }

// ServerConfig parameterizes a serving node built with NewHTTPServer:
// training matrix, backend overrides, dispatch options, and the drift
// monitor's self-healing loop.
type ServerConfig = server.Config

// HTTPServer is a serving node with lifecycle control: Close stops its
// drift loop (the handler stays usable).
type HTTPServer interface {
	http.Handler
	Close()
}

// NewHTTPServer builds a fully configured serving node: the annotated
// request API, the dispatch runtime over the configured backends, rule
// generation, and drift detection with optional self-healing
// re-profiling.
func NewHTTPServer(reg *Registry, reqs []*Request, cfg ServerConfig) HTTPServer {
	return server.NewWithConfig(reg, reqs, cfg)
}

// Multi-node serving fleet (the front tier / ttworker split).
type (
	// FleetOptions parameterizes a front tier's worker pool: the
	// liveness lease, the clock and the event log. Hang one on
	// ServerConfig.Fleet to make the node a front tier — workers built
	// with cmd/ttworker join it over HTTP, bootstrap from its snapshot
	// endpoint, and serve its routed dispatch traffic.
	FleetOptions = fleet.Options
	// FleetAgent is the worker-side membership loop: register,
	// heartbeat, resync on version-fence mismatch.
	FleetAgent = fleet.Agent
	// WorkerOptions parameterizes a serving node assembled from a
	// shipped fleet snapshot.
	WorkerOptions = server.WorkerOptions
	// WorkerServer is the concrete serving node type (NewWorkerServer,
	// and the value behind NewHTTPServer's interface), exposing the
	// fleet accessors HTTPServer hides.
	WorkerServer = server.Server
)

// NewWorkerFromSnapshot assembles a serving node from a front tier's
// shipped state snapshot: replay backends over the profile matrix, the
// shipped rule tables, and the snapshot's table version as its fence.
// cmd/ttworker pulls the snapshot with PullFleetSnapshot and serves the
// result.
func NewWorkerFromSnapshot(snap *StateSnapshot, opts WorkerOptions) (*WorkerServer, error) {
	return server.NewWorkerFromSnapshot(snap, opts)
}

// PullFleetSnapshot fetches a front tier's state snapshot over HTTP
// (GET /fleet/snapshot) for worker bootstrap. client may be nil.
func PullFleetSnapshot(ctx context.Context, client *http.Client, frontURL string) (*StateSnapshot, error) {
	return fleet.PullSnapshot(ctx, client, frontURL)
}

// NewAdmissionController builds the admission-and-overload layer.
// NewHTTPServer constructs one automatically from
// ServerConfig.Admission; build one directly to gate an embedded
// Dispatcher (Admit before Do, Done after — see
// BenchmarkCoalescedDispatch).
func NewAdmissionController(cfg AdmissionConfig) *AdmissionController { return admit.New(cfg) }

// NewDispatcher builds the online tier-execution runtime over the
// backends (backend index i serves version i of the profiled service).
func NewDispatcher(backends []Backend, opts DispatchOptions) *Dispatcher {
	return dispatch.New(backends, opts)
}

// NewReplayBackends serves a profile matrix's version columns as
// deterministic dispatch backends: the whole runtime — limiters,
// hedging, telemetry — is testable and load-testable offline, and
// replay dispatch provably converges to the offline tier predictions.
func NewReplayBackends(m *Matrix) []Backend { return dispatch.NewReplayBackends(m) }

// ReplayRequests synthesizes the payload-less request list a replay
// dispatcher serves (one request per profiled row).
func ReplayRequests(m *Matrix) []*Request { return dispatch.ReplayRequests(m) }

// DispatchTierKey renders the canonical telemetry key of a tier,
// "objective/tolerance" (fmt's %s/%g). The result is interned, so
// building a Ticket's tier with it per request is allocation-free.
func DispatchTierKey(obj Objective, tolerance float64) string {
	return dispatch.TierKey(string(obj), tolerance)
}

// NewDriftMonitor builds a drift monitor over the named backends. Hang
// it on DispatchOptions.Observer so every dispatched outcome feeds the
// per-tier detectors, and call its Check method periodically to run the
// per-backend quantile tests and collect confirmed shift events.
// baselineP95Ns supplies the profiled per-backend latency p95 reference
// (nil disables the quantile tests).
func NewDriftMonitor(cfg DriftConfig, backendNames []string, baselineP95Ns []float64) *DriftMonitor {
	return drift.NewMonitor(cfg, backendNames, baselineP95Ns)
}

// Crash-safe state persistence (the restart-recovery layer).
//
// A serving node with ServerConfig.StateDir set writes a versioned,
// checksummed snapshot of its healed runtime state — profile matrix,
// active rule tables, drift baselines, heal history — atomically on
// every canary promotion and on Close. A restarted process loads the
// snapshot, verifies it against its own corpus with CompatibleWith, and
// boots straight onto the healed tables instead of re-profiling (see
// ttserver -state-dir).
type StateSnapshot = state.Snapshot

// ServerStatePath is the snapshot file a node with the given state
// directory reads on boot and writes on promotion and shutdown.
func ServerStatePath(dir string) string { return server.StatePath(dir) }

// LoadStateSnapshot reads and integrity-checks a snapshot written by a
// serving node. Callers must still verify
// CompatibleWith against their deployment before serving from it.
func LoadStateSnapshot(path string) (*StateSnapshot, error) { return state.Load(path) }

// NewClient returns the Go SDK for a Tolerance Tiers endpoint.
func NewClient(base string, httpClient *http.Client) *client.Client {
	return client.New(base, httpClient)
}

// Split partitions [0, n) into train/test index sets.
func Split(n int, trainFrac float64, seed uint64) (train, test []int) {
	return dataset.Split(n, trainFrac, seed)
}

// SaveRuleTable writes a generated rule table to path as JSON, for
// deployment to serving nodes.
func SaveRuleTable(path string, t RuleTable) error { return rulegen.SaveTableFile(path, t) }
