package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// -repeat judges the benchmark the way the driver does: each set runs
// every workload ten times, interleaved, each run a fresh process
// with another seed; a metric's spread is the distance between the first
// and third quartile of its runs as a share of their median; two sets
// agree when every spread (setup_s excepted) is within the metric's
// bound and no second median is worse than the first by more than it.

// runsPerSet is the driver's: ten runs of each workload per set.
const runsPerSet = 10

// The two unbounded latencies tabulated with -traced, as the evidence
// for leaving them unbounded.
var unboundedLatencies = []string{"loadgen.paced_p50_ms", "tail.closed_p99_ms"}

type childResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload once in a fresh process and parses the last
// line of its output.
func runChild(workload string, seed uint64, seconds float64, trace int) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: %d of %d calls failed", workload, seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

// series is the values of one metric on one workload, per set.
type series map[string][][]float64 // "workload/metric" -> set -> runs

func (s series) add(sets, set int, workload, metric string, v float64) {
	key := workload + "/" + metric
	if s[key] == nil {
		s[key] = make([][]float64, sets)
	}
	s[key][set] = append(s[key][set], v)
}

func runRepeat(w io.Writer, sets int, seconds float64, traced bool) error {
	vals := series{}
	for set := 0; set < sets; set++ {
		for run := 0; run < runsPerSet; run++ {
			seed := uint64(1000*(set+1) + run + 1)
			for _, wl := range workloads {
				res, err := runChild(wl.Name, seed, seconds, 0)
				if err != nil {
					return err
				}
				for _, m := range endToEnd {
					vals.add(sets, set, wl.Name, m.Name, res.Metrics[m.Name].Value)
				}
				line := fmt.Sprintf("set %d run %2d seed %d %-19s", set+1, run+1, seed, wl.Name)
				for _, m := range endToEnd {
					line += fmt.Sprintf(" %s=%.5g", m.Name, res.Metrics[m.Name].Value)
				}
				if traced {
					if res, err = runChild(wl.Name, seed, seconds, 1); err != nil {
						return err
					}
					for _, name := range unboundedLatencies {
						vals.add(sets, set, wl.Name, name, res.Metrics[name].Value)
						line += fmt.Sprintf(" %s=%.5g", name, res.Metrics[name].Value)
					}
				}
				fmt.Fprintln(w, line)
			}
		}
	}
	return judge(w, vals, sets, traced)
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// direction (negative = better).
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge prints the repeatability tables and applies the bounds.
func judge(w io.Writer, vals series, sets int, traced bool) error {
	var failures []string
	header := "| workload | metric |"
	rule := "|---|---|"
	for s := 1; s <= sets; s++ {
		header += fmt.Sprintf(" set %d median | set %d iqr |", s, s)
		rule += "---|---|"
	}
	header += " worse by | bound | verdict |"
	rule += "---|---|---|"
	table := func(title string, metrics []metricSpec) {
		fmt.Fprintf(w, "\n%s\n\n%s\n%s\n", title, header, rule)
		for _, wl := range workloads {
			for _, m := range metrics {
				runs := vals[wl.Name+"/"+m.Name]
				if runs == nil {
					continue
				}
				row := fmt.Sprintf("| %s | %s |", wl.Name, m.Name)
				verdict := "ok"
				for s := 0; s < sets; s++ {
					spread := spreadShare(runs[s])
					row += fmt.Sprintf(" %.5g | %.2f%% |", median(runs[s]), 100*spread)
					if m.Bound != nil && m.Name != "setup_s" && spread > *m.Bound {
						verdict = "SPREAD"
					}
				}
				drift := worseBy(m.Better, median(runs[0]), median(runs[sets-1]))
				bound := "none"
				if m.Bound != nil {
					bound = fmt.Sprintf("%.0f%%", 100**m.Bound)
					if drift > *m.Bound {
						verdict = "DRIFT"
					}
				}
				row += fmt.Sprintf(" %+.2f%% | %s | %s |", 100*drift, bound, verdict)
				fmt.Fprintln(w, row)
				if verdict != "ok" {
					failures = append(failures, wl.Name+"/"+m.Name+" "+verdict)
				}
			}
		}
	}
	table("End-to-end metrics", endToEnd)
	if traced {
		var ms []metricSpec
		for _, name := range unboundedLatencies {
			ms = append(ms, metricSpec{Name: name, Better: "lower"})
		}
		table("Unbounded latencies (traced pass)", ms)
	}
	if len(failures) > 0 {
		return fmt.Errorf("the sets disagree beyond the bounds: %s", strings.Join(failures, ", "))
	}
	fmt.Fprintf(w, "\n%d sets agree within the bounds\n", sets)
	return nil
}
