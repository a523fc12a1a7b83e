// Command ttserver serves a Tolerance Tiers MLaaS endpoint over HTTP.
//
// It builds the selected service (asr or vision), profiles a corpus,
// generates routing rules for both objectives at the requested
// confidence, and serves the §IV-A annotated-request API:
//
//	ttserver -service vision -corpus 2000 -addr :8080
//	curl --header 'Tolerance: 0.01' --header 'Objective: response-time' \
//	     --data '{"request_id": 7}' -X POST http://localhost:8080/compute
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/toltiers/toltiers"
)

func main() {
	var (
		svcName    = flag.String("service", "vision", "service to deploy: asr | vision | vision-cpu")
		corpusN    = flag.Int("corpus", 2000, "corpus size to profile and serve")
		addr       = flag.String("addr", ":8080", "listen address")
		confidence = flag.Float64("confidence", 0.999, "rule-generator bootstrap confidence")
		step       = flag.Float64("step", 0.005, "tolerance grid step")
		driftOn    = flag.Bool("drift", false, "watch live telemetry for distribution shifts and self-heal: a confirmed shift re-profiles the backends, canary-trials the regenerated rule tables on a traffic slice, and promotes them only on a win")
		driftTick  = flag.Duration("drift-interval", 0, "drift check cadence (0 = 2s)")
		stateDir   = flag.String("state-dir", "", "directory for crash-safe state snapshots: healed rule tables, drift baselines and heal history persist atomically on promotion and shutdown, and a compatible snapshot restores on boot instead of re-profiling")

		admitOn       = flag.Bool("admit", false, "enable the admission layer: per-tenant token buckets, priority admission, deadline shedding (GET /admission, POST /admission/config)")
		admitInflight = flag.Int("admit-max-inflight", 0, "admitted in-flight dispatch cap (0 = unlimited)")
		admitReserve  = flag.Int("admit-priority-reserve", 0, "in-flight slots reserved for priority tiers (0 = 10% of the cap)")
		admitRate     = flag.Float64("admit-rate", 0, "default per-tenant token-bucket refill, requests/s (0 = unlimited)")
		admitBurst    = flag.Float64("admit-burst", 0, "default per-tenant bucket burst (0 = refill rate)")
		brownoutOn    = flag.Bool("brownout", false, "arm the brownout controller: sustained shedding downgrades tolerant traffic to the -brownout-tier policy until the overload clears")
		brownoutTier  = flag.Float64("brownout-tier", 0, "tolerance tier brownout downgrades to (0 = 0.10)")

		coalesceOn     = flag.Bool("coalesce", false, "coalesce concurrent single requests (POST /dispatch, POST /compute) of the same tier into batch windows (a request waits only while at least -coalesce-max callers are in flight; below that it dispatches at once)")
		coalesceWindow = flag.Duration("coalesce-window", 0, "coalescing time trigger (0 = 200µs; clamped to 100µs–500µs)")
		coalesceMax    = flag.Int("coalesce-max", 0, "the batch worth waiting for: a window flushes at this many requests, and requests park only while at least this many callers are in flight (0 = 64)")

		fleetOn    = flag.Bool("fleet", false, "serve as a multi-node front tier: ttworker nodes register over HTTP (POST /fleet/register), bootstrap from GET /fleet/snapshot, and dispatch traffic routes across them with tenant-affine consistent routing and transparent failover (GET /fleet reports the fleet)")
		fleetLease = flag.Duration("fleet-lease", 0, "worker liveness lease; a worker missing heartbeats this long leaves rotation (0 = 3s)")

		traceOff    = flag.Bool("no-trace", false, "disable the per-dispatch flight recorder (GET /trace/recent, GET /trace/{id})")
		traceSize   = flag.Int("trace-ring", 0, "flight-recorder ring capacity, rounded to a power of two (0 = 1024)")
		traceSample = flag.Int("trace-sample", 0, "head-sampling stride: keep 1 in N dispatches; tail exemplars always kept (0 = 16)")
		accessLog   = flag.Bool("access-log", false, "log every request as a structured line including its trace id")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ for live CPU and heap profiles")
	)
	flag.Parse()

	svc, reqs, err := toltiers.NewCorpusByName(*svcName, *corpusN)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// A compatible state snapshot restores the healed runtime — matrix,
	// rule tables, baselines, heal history — and skips profiling and
	// rule generation entirely. Any load failure (no snapshot yet,
	// corruption, corpus skew) falls back to profiling from scratch: the
	// snapshot is a cache of re-derivable work, never the source of
	// truth.
	var (
		matrix  *toltiers.Matrix
		reg     *toltiers.Registry
		restore *toltiers.StateSnapshot
	)
	if *stateDir != "" {
		// Every install persists before it serves, so a directory that
		// cannot hold the snapshot would refuse every promotion.
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			log.Fatalf("state dir: %v", err)
		}
		path := toltiers.ServerStatePath(*stateDir)
		snap, lerr := toltiers.LoadStateSnapshot(path)
		if lerr == nil {
			ids := make([]int, len(reqs))
			for i, r := range reqs {
				ids[i] = r.ID
			}
			lerr = snap.CompatibleWith(svc.Domain, svc.VersionNames(), ids)
		}
		switch {
		case lerr == nil:
			matrix = snap.Matrix
			reg = toltiers.NewRegistry(svc, snap.Tables...)
			restore = snap
			log.Printf("restored state snapshot %s: %d tables, %d heals, saved %s",
				path, len(snap.Tables), len(snap.Heals), snap.SavedAt.Format(time.RFC3339))
		case errors.Is(lerr, os.ErrNotExist):
			log.Printf("no state snapshot at %s; profiling from scratch", path)
		default:
			log.Printf("ignoring state snapshot %s: %v", path, lerr)
		}
	}
	if restore == nil {
		log.Printf("profiling %d requests across %d versions of %s ...", len(reqs), len(svc.Versions), svc.Domain)
		matrix = toltiers.Profile(svc, reqs)

		gcfg := toltiers.DefaultGeneratorConfig()
		gcfg.Confidence = *confidence
		log.Printf("generating routing rules (confidence %.3f) ...", *confidence)
		gen := toltiers.NewRuleGenerator(matrix, nil, gcfg)
		grid := toltiers.ToleranceGrid(0.10, *step)
		reg = toltiers.NewRegistry(svc,
			gen.Generate(grid, toltiers.MinimizeLatency),
			gen.Generate(grid, toltiers.MinimizeCost))
	}

	cfg := toltiers.ServerConfig{
		Matrix:        matrix,
		StateDir:      *stateDir,
		Restore:       restore,
		Trace:         toltiers.TraceOptions{Disabled: *traceOff, Size: *traceSize, SampleEvery: *traceSample},
		Drift:         toltiers.DriftConfig{Enabled: *driftOn, AutoReprofile: *driftOn},
		DriftInterval: *driftTick,
		Admission: toltiers.AdmissionConfig{
			Enabled:           *admitOn || *brownoutOn,
			MaxInFlight:       *admitInflight,
			PriorityReserve:   *admitReserve,
			DefaultRate:       toltiers.TenantRate{PerSec: *admitRate, Burst: *admitBurst},
			Brownout:          *brownoutOn,
			BrownoutTolerance: *brownoutTier,
		},
	}
	if *coalesceOn {
		cfg.Coalesce = &toltiers.CoalesceOptions{Window: *coalesceWindow, MaxBatch: *coalesceMax}
	}
	if *fleetOn {
		cfg.Fleet = &toltiers.FleetOptions{Lease: *fleetLease, Logf: log.Printf}
	}
	srv := toltiers.NewHTTPServer(reg, reqs, cfg)
	defer srv.Close()
	if *driftOn {
		log.Printf("drift monitor armed (GET /drift, POST /drift/config)")
	}
	if *stateDir != "" {
		log.Printf("state snapshots armed: %s (written on promotion and shutdown)", toltiers.ServerStatePath(*stateDir))
	}
	if *admitOn || *brownoutOn {
		log.Printf("admission layer armed (GET /admission, POST /admission/config; brownout %v)", *brownoutOn)
	}
	if *coalesceOn {
		log.Printf("dispatch coalescing armed (window %v, max batch %d)", *coalesceWindow, *coalesceMax)
	}
	if *fleetOn {
		log.Printf("fleet front tier armed: workers join via POST /fleet/register, status at GET /fleet")
	}
	if !*traceOff {
		log.Printf("flight recorder armed (GET /trace/recent, GET /trace/{id}, GET /metrics/prometheus)")
	}

	// Every request goes through the Instrument middleware: handler
	// metrics (GET /metrics, prepended to GET /metrics/prometheus) and
	// X-Toltiers-Trace minting, so recorder exemplars join to client ids
	// and, with -access-log, to log lines.
	var logger *slog.Logger
	if *accessLog {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	handler := toltiers.InstrumentHandler(srv, toltiers.NewServerMetrics(), logger)
	if *pprofOn {
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", handler)
		handler = root
		log.Printf("pprof mounted at /debug/pprof/")
	}
	// Graceful shutdown: SIGTERM/SIGINT drains in-flight HTTP (bounded),
	// then srv.Close() stops the drift loop — resolving any live canary
	// trial — and writes the final state snapshot.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("serving %s tolerance tiers on %s (POST /rules/generate regenerates in place)", svc.Domain, *addr)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("shutdown signal: draining in-flight requests ...")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("drain: %v", err)
		}
		srv.Close() // stops the drift loop, snapshots final state
		log.Printf("shutdown complete")
	}
}
