package rulegen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/toltiers/toltiers/internal/ensemble"
)

// Rule tables are generated offline (the expensive bootstrap) and
// deployed to serving nodes; this file provides their wire format.

// tableJSON is the serialized form of a RuleTable.
type tableJSON struct {
	Format    string     `json:"format"`
	Objective string     `json:"objective"`
	Best      int        `json:"best_version"`
	Rules     []ruleJSON `json:"rules"`
}

type ruleJSON struct {
	Tolerance float64    `json:"tolerance"`
	Policy    policyJSON `json:"policy"`
	// Bootstrapped statistics, for operators inspecting deployments.
	WorstErrDeg   float64 `json:"worst_err_deg"`
	MeanErrDeg    float64 `json:"mean_err_deg"`
	MeanLatencyNS int64   `json:"mean_latency_ns"`
	MeanInvCost   float64 `json:"mean_inv_cost"`
	Trials        int     `json:"trials"`
}

type policyJSON struct {
	Kind      string  `json:"kind"`
	Primary   int     `json:"primary"`
	Secondary int     `json:"secondary,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	PickBest  bool    `json:"pick_best,omitempty"`
}

const tableFormat = "toltiers-rules-v1"

func kindToString(k ensemble.Kind) string { return k.String() }

func kindFromString(s string) (ensemble.Kind, error) {
	switch s {
	case "single":
		return ensemble.Single, nil
	case "failover":
		return ensemble.Failover, nil
	case "concurrent":
		return ensemble.Concurrent, nil
	}
	return 0, fmt.Errorf("rulegen: unknown policy kind %q", s)
}

// WriteTable serializes the table as JSON.
func WriteTable(w io.Writer, t RuleTable) error {
	out := tableJSON{Format: tableFormat, Objective: string(t.Objective), Best: t.Best}
	for _, r := range t.Rules {
		c := r.Candidate
		out.Rules = append(out.Rules, ruleJSON{
			Tolerance: r.Tolerance,
			Policy: policyJSON{
				Kind:      kindToString(c.Policy.Kind),
				Primary:   c.Policy.Primary,
				Secondary: c.Policy.Secondary,
				Threshold: c.Policy.Threshold,
				PickBest:  c.Policy.PickBest,
			},
			WorstErrDeg:   c.WorstErrDeg,
			MeanErrDeg:    c.MeanErrDeg,
			MeanLatencyNS: int64(c.MeanLatency),
			MeanInvCost:   c.MeanInvCost,
			Trials:        c.Trials,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadTable deserializes a table written by WriteTable and validates it
// against a service with nVersions versions (0 skips the check).
func ReadTable(r io.Reader, nVersions int) (RuleTable, error) {
	var in tableJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return RuleTable{}, fmt.Errorf("rulegen: decode table: %w", err)
	}
	if in.Format != tableFormat {
		return RuleTable{}, fmt.Errorf("rulegen: unknown table format %q", in.Format)
	}
	obj, err := ParseObjective(in.Objective)
	if err != nil {
		return RuleTable{}, err
	}
	out := RuleTable{Objective: obj, Best: in.Best}
	for i, rj := range in.Rules {
		kind, err := kindFromString(rj.Policy.Kind)
		if err != nil {
			return RuleTable{}, fmt.Errorf("rulegen: rule %d: %w", i, err)
		}
		pol := ensemble.Policy{
			Kind:      kind,
			Primary:   rj.Policy.Primary,
			Secondary: rj.Policy.Secondary,
			Threshold: rj.Policy.Threshold,
			PickBest:  rj.Policy.PickBest,
		}
		if nVersions > 0 {
			if err := pol.Validate(nVersions); err != nil {
				return RuleTable{}, fmt.Errorf("rulegen: rule %d: %w", i, err)
			}
		}
		if i > 0 && rj.Tolerance <= in.Rules[i-1].Tolerance {
			return RuleTable{}, fmt.Errorf("rulegen: rule %d: tolerances not strictly increasing", i)
		}
		out.Rules = append(out.Rules, Rule{
			Tolerance: rj.Tolerance,
			Objective: obj,
			Candidate: Candidate{
				Policy:      pol,
				Trials:      rj.Trials,
				WorstErrDeg: rj.WorstErrDeg,
				MeanErrDeg:  rj.MeanErrDeg,
				MeanLatency: time.Duration(rj.MeanLatencyNS),
				MeanInvCost: rj.MeanInvCost,
			},
		})
	}
	return out, nil
}

// SaveTableFile writes the table to path.
func SaveTableFile(path string, t RuleTable) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTable(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
