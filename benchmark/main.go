// Command benchmark is the served-path benchmark of the repository: it
// assembles the program's own serving node in this process, drives one
// named workload against it for --seconds, verifies every answer and
// prints every metric by name with its unit. See README.md.
//
//	bash benchmark/run.sh --workload direct_single --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -smoke        every workload, both passes, 1 s phases
//	bash benchmark/run.sh -repeat 2     two complete sets of ten runs, compared against the bounds
//	bash benchmark/run.sh -spec         print BENCHMARK.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
		seed     = flag.Uint64("seed", 1, "seed of the request stream")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace    = flag.Int("trace", 0, "0: end-to-end pass; 1: traced pass (per-layer metrics, spans file)")
		smoke    = flag.Bool("smoke", false, "run every workload, both passes, with 1 s phases and corpus 300")
		repeat   = flag.Int("repeat", 0, "run this many complete sets and compare them against the bounds")
		traced   = flag.Bool("traced", false, "with -repeat: also run the traced pass and tabulate the unbounded latencies")
		printSpc = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	switch {
	case *printSpc:
		os.Stdout.Write(specJSON())
		return
	case *smoke:
		if err := runSmoke(os.Stdout, *seed, outDir()); err != nil {
			fatal(err)
		}
		return
	case *repeat > 0:
		if err := runRepeat(os.Stdout, *repeat, *seconds, *traced); err != nil {
			fatal(err)
		}
		return
	}

	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		corpus: corpusSize, setups: setUpsPerRun, outDir: outDir(),
	}
	// The hard limit also holds if the run wedges: the watchdog ends the
	// process, in-process servers included.
	watchdog := time.AfterFunc(hardLimit+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run wedged past the hard limit; giving up")
		os.Exit(3)
	})
	res, err := run(cfg)
	watchdog.Stop()
	if err != nil {
		fatal(err)
	}
	printResult(os.Stdout, res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// benchDir is the benchmark's own directory: the binary lives in its
// .build/ subdirectory.
func benchDir() string {
	exe, err := os.Executable()
	if err != nil {
		return "benchmark"
	}
	return filepath.Dir(filepath.Dir(exe))
}

func outDir() string { return filepath.Join(benchDir(), "out") }

// printResult writes the table of metrics for people, then the result
// object for the driver as the last line.
func printResult(w io.Writer, r *result) {
	pass := "end-to-end"
	if r.trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "# %s, %s pass: %d calls attempted, %d failed\n", r.workload, pass, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %16s %-6s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit, m.note)
	}
	fmt.Fprintln(w, resultJSON(r))
}

// resultJSON is the one-line result object, metrics in spec order, every
// value with all its digits.
func resultJSON(r *result) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.failed == 0, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// checkAgainstSpec makes sure a result carries exactly the metrics the
// spec promises for its pass, in order and with the spec's units.
func checkAgainstSpec(r *result) error {
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("%s: %d metrics reported, the spec lists %d", r.workload, len(r.metrics), len(want))
	}
	for i, m := range r.metrics {
		if m.name != want[i].Name || m.unit != want[i].Unit {
			return fmt.Errorf("%s: metric %d is %s [%s], the spec lists %s [%s]", r.workload, i, m.name, m.unit, want[i].Name, want[i].Unit)
		}
	}
	return nil
}

// runSmoke runs every workload through both passes quickly: 1 s phases,
// corpus 300, three set-ups. It checks shape and correctness, not speed.
func runSmoke(w io.Writer, seed uint64, outDir string) error {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(runConfig{workload: wl.Name, seed: seed, seconds: 1, trace: trace, corpus: 300, setups: 3, smoke: true, outDir: outDir})
			if err != nil {
				return fmt.Errorf("%s (trace %t): %w", wl.Name, trace, err)
			}
			if err := checkAgainstSpec(res); err != nil {
				return err
			}
			if !trace {
				for _, m := range res.metrics {
					if m.value == 0 {
						return fmt.Errorf("%s: end-to-end metric %s is 0", wl.Name, m.name)
					}
				}
			}
			printResult(w, res)
		}
	}
	return nil
}
