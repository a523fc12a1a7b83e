// Command ttserver serves a Tolerance Tiers MLaaS endpoint over HTTP.
//
// It builds the selected service (asr or vision), profiles a corpus,
// generates routing rules for both objectives at the requested
// confidence, and serves the §IV-A annotated-request API:
//
//	ttserver -service vision -corpus 2000 -addr :8080
//	curl --header 'Tolerance: 0.01' --header 'Objective: response-time' \
//	     --data '{"request_id": 7}' -X POST http://localhost:8080/compute
//
// With -fleet the node is a front tier that routes dispatch traffic
// across worker nodes; a worker is this binary started with -join. It
// bootstraps entirely over HTTP — the front tier ships its profile
// matrix and promoted rule tables through GET /fleet/snapshot, so the
// worker needs no corpus and runs no profiling — and serves the
// dispatch wire surface the front tier routes to. Membership is
// lease-based: the worker heartbeats, the front tier de-registers it
// when heartbeats stop, and a worker that falls behind the fleet's
// rule-table version fence re-pulls the snapshot. Rolling table pushes
// land on POST /fleet/table.
//
//	ttserver -fleet -state-dir /var/lib/toltiers -addr :8080 &
//	ttserver -join http://localhost:8080 -addr :9001 &
//	ttserver -join http://localhost:8080 -addr :9002 &
//	curl -s http://localhost:8080/fleet | jq .workers
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/toltiers/toltiers/internal/admit"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/drift"
	"github.com/toltiers/toltiers/internal/fleet"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/server"
	"github.com/toltiers/toltiers/internal/state"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/trace"
)

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

	fleetOn    = flag.Bool("fleet", false, "serve as a multi-node front tier (requires -state-dir): nodes started with -join register over HTTP (POST /fleet/register), bootstrap from GET /fleet/snapshot, and dispatch traffic routes across them with tenant-affine consistent routing and transparent failover (GET /fleet reports the fleet)")
	fleetLease = flag.Duration("fleet-lease", 0, "worker liveness lease; a worker missing heartbeats this long leaves rotation (0 = 3s)")

	traceOff    = flag.Bool("no-trace", false, "disable the per-dispatch flight recorder (GET /trace/recent, GET /trace/{id})")
	traceSize   = flag.Int("trace-ring", 0, "flight-recorder ring capacity, rounded to a power of two (0 = 1024)")
	traceSample = flag.Int("trace-sample", 0, "head-sampling stride: keep 1 in N dispatches; tail exemplars always kept (0 = 16)")
	accessLog   = flag.Bool("access-log", false, "log every request as a structured line including its trace id")
	pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ for live CPU and heap profiles")

	join       = flag.String("join", "", "serve as a fleet worker of the front tier at this base URL (a ttserver started with -fleet), e.g. http://localhost:8080")
	advertise  = flag.String("advertise", "", "base URL the front tier should dispatch to (default: http://<host>:<port> derived from -addr)")
	name       = flag.String("name", "", "worker name leased with the front tier (default: worker-<pid>)")
	heartbeat  = flag.Duration("heartbeat", time.Second, "lease renewal cadence; keep well under the front tier's -fleet-lease")
	sleepScale = flag.Float64("sleep-scale", 0, "make replay invocations occupy wall-clock time (profiled latency x scale) so routed load exercises real queueing; 0 = instant replay")
	maxPerBE   = flag.Int("max-per-backend", 0, "in-flight invocation cap per backend version (0 = unlimited)")
)

// joinFlags are the flags a node started with -join reads, true for
// those no other node reads.
var joinFlags = map[string]bool{"join": false, "addr": false, "access-log": false, "pprof": false,
	"advertise": true, "name": true, "heartbeat": true, "sleep-scale": true, "max-per-backend": true}

// checkFlags refuses a command line that sets a flag the chosen kind
// of node would ignore, and a front tier that could restart without
// the table-version fence its workers serve at.
func checkFlags(joined bool) error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		switch only, read := joinFlags[f.Name]; {
		case err != nil:
		case joined && !read:
			err = fmt.Errorf("-%s does not apply to a node started with -join", f.Name)
		case !joined && only:
			err = fmt.Errorf("-%s applies only to a node started with -join", f.Name)
		}
	})
	if err == nil && *fleetOn && *stateDir == "" {
		err = errors.New("-fleet needs -state-dir: without it a restarted front tier comes back at table v0 while its workers serve a later version")
	}
	return err
}

func main() {
	flag.Parse()
	joined := *join != ""
	if err := checkFlags(joined); err != nil {
		fmt.Fprintln(os.Stderr, "ttserver:", err)
		os.Exit(2)
	}

	// A signal while the node profiles ends the process at once; the
	// handler goes in before a worker's bootstrap, which retries until
	// interrupted.
	var srv *server.Server
	if !joined {
		srv = buildNode()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if joined {
		srv = bootstrap(ctx)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: instrument(srv)}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	leave := func(context.Context) {}
	if joined {
		leave = startAgent(ctx, srv, ln.Addr().String())
	} else {
		log.Printf("serving %s tolerance tiers on %s (POST /rules/generate regenerates in place)", *svcName, *addr)
	}

	// Graceful shutdown: SIGTERM/SIGINT deregisters a worker so the front
	// tier stops routing to it, drains in-flight HTTP (bounded), then
	// srv.Close() stops the drift loop — resolving any live canary trial
	// — and writes the final state snapshot.
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	log.Printf("shutdown signal: draining in-flight requests ...")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	leave(sctx)
	if err := hs.Shutdown(sctx); err != nil {
		log.Printf("drain: %v", err)
	}
	srv.Close()
	log.Printf("shutdown complete")
}

// buildNode assembles a standalone or front-tier node from a profiled
// corpus, or from the compatible state snapshot in -state-dir.
func buildNode() *server.Server {
	svc, reqs, err := dataset.ByName(*svcName, *corpusN)
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
		matrix  *profile.Matrix
		reg     *tiers.Registry
		restore *state.Snapshot
	)
	if *stateDir != "" {
		// Every install persists before it serves, so a directory that
		// cannot hold the snapshot would refuse every promotion.
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			log.Fatalf("state dir: %v", err)
		}
		path := server.StatePath(*stateDir)
		snap, lerr := state.Load(path)
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
			reg = tiers.NewRegistry(svc, snap.Tables...)
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
		matrix = profile.Build(svc, reqs)

		gcfg := rulegen.DefaultConfig()
		gcfg.Confidence = *confidence
		log.Printf("generating routing rules (confidence %.3f) ...", *confidence)
		gen := rulegen.New(matrix, nil, gcfg)
		grid := rulegen.ToleranceGrid(0.10, *step)
		reg = tiers.NewRegistry(svc,
			gen.Generate(grid, rulegen.MinimizeLatency),
			gen.Generate(grid, rulegen.MinimizeCost))
	}

	cfg := server.Config{
		Matrix:        matrix,
		StateDir:      *stateDir,
		Restore:       restore,
		Trace:         trace.Options{Disabled: *traceOff, Size: *traceSize, SampleEvery: *traceSample},
		Drift:         drift.Config{Enabled: *driftOn, AutoReprofile: *driftOn},
		DriftInterval: *driftTick,
		Admission: admit.Config{
			Enabled:           *admitOn || *brownoutOn,
			MaxInFlight:       *admitInflight,
			PriorityReserve:   *admitReserve,
			DefaultRate:       admit.Rate{PerSec: *admitRate, Burst: *admitBurst},
			Brownout:          *brownoutOn,
			BrownoutTolerance: *brownoutTier,
		},
	}
	if *coalesceOn {
		cfg.Coalesce = &coalesce.Options{Window: *coalesceWindow, MaxBatch: *coalesceMax}
		log.Printf("dispatch coalescing armed (window %v, max batch %d)", *coalesceWindow, *coalesceMax)
	}
	if *fleetOn {
		cfg.Fleet = &fleet.Options{Lease: *fleetLease, Logf: log.Printf}
		log.Printf("fleet front tier armed: workers join via POST /fleet/register, status at GET /fleet")
	}
	srv := server.NewWithConfig(reg, reqs, cfg)
	if *driftOn {
		log.Printf("drift monitor armed (GET /drift, POST /drift/config)")
	}
	if *stateDir != "" {
		log.Printf("state snapshots armed: %s (written on promotion and shutdown)", server.StatePath(*stateDir))
	}
	if *admitOn || *brownoutOn {
		log.Printf("admission layer armed (GET /admission, POST /admission/config; brownout %v)", *brownoutOn)
	}
	if !*traceOff {
		log.Printf("flight recorder armed (GET /trace/recent, GET /trace/{id}, GET /metrics/prometheus)")
	}
	return srv
}

// bootstrap assembles a worker from the -join front tier's snapshot,
// retrying every second while the front tier comes up. The snapshot is
// the whole model — the worker profiles nothing.
func bootstrap(ctx context.Context) *server.Server {
	var snap *state.Snapshot
	for {
		var err error
		snap, err = fleet.PullSnapshot(ctx, nil, *join)
		if err == nil {
			break
		}
		log.Printf("bootstrap: %v (retrying in 1s)", err)
		select {
		case <-ctx.Done():
			log.Fatal("interrupted before bootstrap completed")
		case <-time.After(time.Second):
		}
	}
	srv, err := server.NewWorkerFromSnapshot(snap, server.WorkerOptions{
		SleepScale: *sleepScale,
		Dispatch:   dispatch.Options{MaxConcurrentPerBackend: *maxPerBE},
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("bootstrapped from %s: table v%d, %d profiled requests", *join, srv.TableVersion(), snap.Matrix.NumRequests())
	return srv
}

// startAgent runs a worker's membership loop until ctx ends: register,
// heartbeat, resync when the front tier's version fence moves past the
// worker (its register/heartbeat responses say so; rolling pushes
// normally keep the worker current without a resync). bound is the
// listen address. The returned leave deregisters once the loop is done.
func startAgent(ctx context.Context, srv *server.Server, bound string) (leave func(context.Context)) {
	a := &fleet.Agent{
		Join: *join, Name: *name, Advertise: *advertise,
		Heartbeat: *heartbeat,
		Version:   srv.TableVersion,
		Resync: func(ctx context.Context, fleetVersion int64) error {
			fresh, err := fleet.PullSnapshot(ctx, nil, *join)
			if err != nil {
				return err
			}
			if err := srv.InstallSnapshot(fresh); err != nil {
				return err
			}
			log.Printf("resynced to table v%d", srv.TableVersion())
			return nil
		},
		Logf: log.Printf,
	}
	if a.Name == "" {
		a.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if a.Advertise == "" {
		a.Advertise = advertiseFor(bound)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = a.Run(ctx) }()
	log.Printf("worker %s serving on %s (advertised as %s)", a.Name, bound, a.Advertise)
	return func(ctx context.Context) { <-done; a.Deregister(ctx) }
}

// advertiseFor derives a dialable base URL from the bound listen
// address: an unspecified host (":9090", "[::]:9090") advertises
// localhost — multi-host deployments should pass -advertise explicitly.
func advertiseFor(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return "http://" + bound
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	if strings.Contains(host, ":") {
		host = "[" + host + "]"
	}
	return "http://" + host + ":" + port
}

// instrument puts every request through the Instrument middleware:
// handler metrics (GET /metrics, prepended to GET /metrics/prometheus)
// and X-Toltiers-Trace minting, so recorder exemplars join to client
// ids and, with -access-log, to log lines. -pprof mounts the profiler
// beside it.
func instrument(srv http.Handler) http.Handler {
	var logger *slog.Logger
	if *accessLog {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	handler := server.Instrument(srv, server.NewMetrics(), logger)
	if !*pprofOn {
		return handler
	}
	root := http.NewServeMux()
	root.HandleFunc("/debug/pprof/", pprof.Index)
	root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	root.HandleFunc("/debug/pprof/profile", pprof.Profile)
	root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	root.Handle("/", handler)
	log.Printf("pprof mounted at /debug/pprof/")
	return root
}
