// Package workload synthesizes request arrival processes for the load
// generators: Poisson and bursty (two-state modulated) traffic, with
// per-request tier annotations drawn from a consumer mix.
package workload

import (
	"sort"
	"time"

	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/xrand"
)

// Arrival is one incoming annotated request.
type Arrival struct {
	// At is the arrival time offset from the trace start.
	At time.Duration
	// RequestIndex selects a request from the evaluation corpus.
	RequestIndex int
	// Tolerance and Objective are the consumer's annotations.
	Tolerance float64
	Objective rulegen.Objective
}

// ConsumerClass describes one slice of the API consumer population.
type ConsumerClass struct {
	// Weight is the class's share of traffic (normalized internally).
	Weight float64
	// Tolerance and Objective annotate the class's requests.
	Tolerance float64
	Objective rulegen.Objective
}

// DefaultMix models the paper's motivation: accuracy-critical consumers
// (healthcare/finance), responsiveness-critical consumers (social,
// shopping), and cost-critical consumers.
func DefaultMix() []ConsumerClass {
	return []ConsumerClass{
		{Weight: 0.3, Tolerance: 0.0, Objective: rulegen.MinimizeLatency},   // accuracy-critical
		{Weight: 0.45, Tolerance: 0.05, Objective: rulegen.MinimizeLatency}, // responsiveness-critical
		{Weight: 0.25, Tolerance: 0.10, Objective: rulegen.MinimizeCost},    // cost-critical
	}
}

// Config parameterizes a trace.
type Config struct {
	// RatePerSec is the mean arrival rate.
	RatePerSec float64
	// Duration is the trace length.
	Duration time.Duration
	// CorpusSize bounds RequestIndex.
	CorpusSize int
	// Burstiness > 1 enables a two-state modulated process whose "hot"
	// state multiplies the rate by Burstiness for exponential dwell
	// times. 0 or 1 keeps plain Poisson.
	Burstiness float64
	// Seed makes the trace reproducible.
	Seed uint64
}

// Generate synthesizes the trace, sorted by arrival time.
func Generate(cfg Config) []Arrival {
	if cfg.RatePerSec <= 0 || cfg.Duration <= 0 || cfg.CorpusSize <= 0 {
		return nil
	}
	mix := DefaultMix()
	total := 0.0
	for _, c := range mix {
		total += c.Weight
	}
	rng := xrand.New(cfg.Seed ^ 0x7a6e)
	var out []Arrival
	now := time.Duration(0)
	hot := false
	stateLeft := time.Duration(0)
	for now < cfg.Duration {
		rate := cfg.RatePerSec
		if cfg.Burstiness > 1 {
			if stateLeft <= 0 {
				hot = !hot
				// Mean dwell: 5s cold, 1s hot.
				mean := 5.0
				if hot {
					mean = 1.0
				}
				stateLeft = time.Duration(rng.Exp(1/mean) * float64(time.Second))
			}
			if hot {
				rate *= cfg.Burstiness
			}
		}
		gap := time.Duration(rng.Exp(rate) * float64(time.Second))
		now += gap
		stateLeft -= gap
		if now >= cfg.Duration {
			break
		}
		u := rng.Float64() * total
		var cls ConsumerClass
		acc := 0.0
		for _, c := range mix {
			acc += c.Weight
			cls = c
			if u <= acc {
				break
			}
		}
		out = append(out, Arrival{
			At:           now,
			RequestIndex: rng.Intn(cfg.CorpusSize),
			Tolerance:    cls.Tolerance,
			Objective:    cls.Objective,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
