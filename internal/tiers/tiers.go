// Package tiers assembles the consumer-facing Tolerance Tiers service:
// a registry of generated routing rules per optimization objective, live
// request handling for annotated requests (§IV-A's Tolerance/Objective
// headers), and the guarantee audit that verifies — on held-out traffic —
// that no tier exceeds its promised error degradation.
package tiers

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/ensemble"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/service"
)

// Registry holds the generated rule tables of one service.
type Registry struct {
	svc    *service.Service
	tables map[rulegen.Objective]rulegen.RuleTable
	// tiers holds each table's rules in table order, with the strings a
	// serving node renders from them; byKey indexes them by tier key.
	tiers map[rulegen.Objective][]Tier
	byKey map[string]*Tier
}

// Tier is one rule of an installed table together with the two strings
// every ticket, response and telemetry row of the tier carries. They are
// rendered here, once per installed table, not per request.
type Tier struct {
	rulegen.Rule
	// Key is dispatch.TierKey of the rule's objective and tolerance.
	Key string
	// Policy is Rule.Candidate.Policy.String().
	Policy string
}

// NewRegistry builds a registry over svc from one or more rule tables.
func NewRegistry(svc *service.Service, tables ...rulegen.RuleTable) *Registry {
	r := &Registry{
		svc:    svc,
		tables: make(map[rulegen.Objective]rulegen.RuleTable),
		tiers:  make(map[rulegen.Objective][]Tier),
		byKey:  make(map[string]*Tier),
	}
	for _, t := range tables {
		r.tables[t.Objective] = t
		ts := make([]Tier, len(t.Rules))
		for i, rule := range t.Rules {
			rule.Objective = t.Objective
			ts[i] = Tier{
				Rule:   rule,
				Key:    dispatch.TierKey(string(t.Objective), rule.Tolerance),
				Policy: rule.Candidate.Policy.String(),
			}
		}
		r.tiers[t.Objective] = ts
	}
	for _, ts := range r.tiers {
		for i := range ts {
			r.byKey[ts[i].Key] = &ts[i]
		}
	}
	return r
}

// Service returns the underlying service.
func (r *Registry) Service() *service.Service { return r.svc }

// Table returns the rule table registered for obj.
func (r *Registry) Table(obj rulegen.Objective) (rulegen.RuleTable, bool) {
	t, ok := r.tables[obj]
	return t, ok
}

// Objectives lists the registered objectives.
func (r *Registry) Objectives() []rulegen.Objective {
	out := make([]rulegen.Objective, 0, len(r.tables))
	for o := range r.tables {
		out = append(out, o)
	}
	return out
}

// Resolve returns the routing rule serving the given annotation: the
// strictest generated tier whose tolerance does not exceed tol.
func (r *Registry) Resolve(tol float64, obj rulegen.Objective) (rulegen.Rule, error) {
	t, err := r.ResolveTier(tol, obj)
	if err != nil {
		return rulegen.Rule{}, err
	}
	return t.Rule, nil
}

// ResolveTier is Resolve returning the registry's own Tier, rendered
// strings included. The Tier is shared and must not be modified.
func (r *Registry) ResolveTier(tol float64, obj rulegen.Objective) (*Tier, error) {
	ts, ok := r.tiers[obj]
	if !ok {
		return nil, fmt.Errorf("tiers: objective %q not offered", obj)
	}
	if tol < 0 {
		return nil, fmt.Errorf("tiers: negative tolerance %v", tol)
	}
	// As RuleTable.Lookup: the last rule whose tolerance does not exceed tol.
	idx := sort.Search(len(ts), func(i int) bool { return ts[i].Tolerance > tol })
	if idx == 0 {
		return nil, fmt.Errorf("tiers: tolerance %v below the smallest offered tier", tol)
	}
	return &ts[idx-1], nil
}

// TierByKey returns the tier whose Key is key, if this registry offers it.
func (r *Registry) TierByKey(key string) (*Tier, bool) {
	t, ok := r.byKey[key]
	return t, ok
}

// Handle executes one annotated request through its resolved tier.
func (r *Registry) Handle(req *service.Request, tol float64, obj rulegen.Objective) (service.Result, ensemble.Outcome, rulegen.Rule, error) {
	rule, err := r.Resolve(tol, obj)
	if err != nil {
		return service.Result{}, ensemble.Outcome{}, rulegen.Rule{}, err
	}
	res, out := rule.Candidate.Policy.Execute(r.svc, req)
	return res, out, rule, nil
}

// AuditEntry records one tier's held-out evaluation.
type AuditEntry struct {
	Tolerance float64
	Objective rulegen.Objective
	Policy    ensemble.Policy
	// MeasuredErr is the tier's mean error on the audit rows.
	MeasuredErr float64
	// BaselineErr is the most accurate configuration's mean error on
	// the same rows.
	BaselineErr float64
	// Degradation is the relative degradation (ErrDegradation).
	Degradation float64
	// Violated reports Degradation > Tolerance.
	Violated bool
	// MeanLatency and MeanInvCost are the tier's held-out means.
	MeanLatency time.Duration
	MeanInvCost float64
	// LatencyReduction and CostReduction are improvements versus the
	// one-size-fits-all baseline (most accurate single version) on the
	// audit rows; positive is better.
	LatencyReduction float64
	CostReduction    float64
}

// AuditReport aggregates an audit over a rule table.
type AuditReport struct {
	Objective  rulegen.Objective
	Entries    []AuditEntry
	Violations int
}

// Audit evaluates every rule of the table on the given rows of m
// (held-out traffic) and checks the tolerance guarantees. The baseline
// is the table's recorded most-accurate version, evaluated on the same
// rows.
//
// The per-rule sweep runs through one columnar ensemble.Evaluator over
// the audit rows instead of per-configuration row scans: the gather is
// paid once and each rule is a policy fill plus a fused sum, with
// aggregates bit-identical to ensemble.Evaluate (the kernel's property
// tests pin this).
func Audit(m *profile.Matrix, rows []int, table rulegen.RuleTable) AuditReport {
	report := AuditReport{Objective: table.Objective}
	ev := ensemble.NewEvaluator(m, rows)
	ev.SetPolicy(ensemble.Policy{Kind: ensemble.Single, Primary: table.Best})
	baseAgg := ev.Aggregate(nil)
	for _, rule := range table.Rules {
		ev.SetPolicy(rule.Candidate.Policy)
		agg := ev.Aggregate(nil)
		deg := ensemble.ErrDegradation(agg.MeanErr, baseAgg.MeanErr)
		e := AuditEntry{
			Tolerance:        rule.Tolerance,
			Objective:        table.Objective,
			Policy:           rule.Candidate.Policy,
			MeasuredErr:      agg.MeanErr,
			BaselineErr:      baseAgg.MeanErr,
			Degradation:      deg,
			Violated:         deg > rule.Tolerance+1e-12,
			MeanLatency:      agg.MeanLatency,
			MeanInvCost:      agg.MeanInvCost,
			LatencyReduction: 1 - float64(agg.MeanLatency)/float64(baseAgg.MeanLatency),
			CostReduction:    1 - agg.MeanInvCost/baseAgg.MeanInvCost,
		}
		if e.Violated {
			report.Violations++
		}
		report.Entries = append(report.Entries, e)
	}
	return report
}

// CrossValidate runs the paper's 10-fold protocol: for every fold, rules
// are generated on the training rows and audited on the held-out rows.
// It returns one report per fold and the total violation count.
func CrossValidate(m *profile.Matrix, folds []Fold, gcfg rulegen.Config, tols []float64, obj rulegen.Objective) ([]AuditReport, int) {
	reports := make([]AuditReport, len(folds))
	var wg sync.WaitGroup
	for i, f := range folds {
		wg.Add(1)
		go func(i int, f Fold) {
			defer wg.Done()
			g := rulegen.New(m, f.Train, gcfg)
			table := g.Generate(tols, obj)
			reports[i] = Audit(m, f.Test, table)
		}(i, f)
	}
	wg.Wait()
	violations := 0
	for _, rep := range reports {
		violations += rep.Violations
	}
	return reports, violations
}

// Fold mirrors dataset.Fold without importing it (kept dependency-free
// so callers can construct folds from any split source).
type Fold struct {
	Train []int
	Test  []int
}
