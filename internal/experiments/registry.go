package experiments

import (
	"fmt"
	"sort"

	"github.com/toltiers/toltiers/internal/tablewriter"
)

// Descriptor names one runnable experiment.
type Descriptor struct {
	ID    string
	Title string
	Run   func(*Env) []*tablewriter.Table
}

// All returns every experiment in run order.
func All() []Descriptor {
	return []Descriptor{
		{"e1", "Table I — ASR service versions", (*Env).E1},
		{"e2", "Table II — IC model zoo", (*Env).E2},
		{"e3", "Fig. 1 — accuracy-latency frontiers", (*Env).E3},
		{"e4", "Fig. 2 — request behaviour categories", (*Env).E4},
		{"e5", "Fig. 3 — error by category across versions", (*Env).E5},
		{"e6", "Fig. 5 — ensemble policy anatomy", (*Env).E6},
		{"e7", "Fig. 6 — latency reduction vs tolerance", (*Env).E7},
		{"e8", "Fig. 6 — cost reduction vs tolerance", (*Env).E8},
		{"e9", "guarantee audit (k-fold cross validation)", (*Env).E9},
		{"e10", "headline summary vs paper", (*Env).E10},
		{"a1", "ablation: value of the confidence gate", (*Env).A1},
		{"a2", "ablation: 2-version vs 3-version ladders", (*Env).A2},
		{"a3", "ablation: bootstrap confidence level", (*Env).A3},
		{"a4", "ablation: FO vs ET under both billing models", (*Env).A4},
		{"a5", "ablation: result selection on escalation", (*Env).A5},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Descriptor, error) {
	for _, d := range All() {
		if d.ID == id {
			return d, nil
		}
	}
	ids := make([]string, 0)
	for _, d := range All() {
		ids = append(ids, d.ID)
	}
	sort.Strings(ids)
	return Descriptor{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}
