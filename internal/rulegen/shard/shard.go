// Package shard exists only because the benchmark harness still imports
// it: Generate forwards to rulegen.NewContext, the repository's one
// rule-generation sweep. The package is deleted once the harness calls
// rulegen directly.
package shard

import (
	"context"

	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
)

// Options is empty: the sweep has nothing to tune.
type Options struct{}

// Report is empty: the sweep has nothing to report beyond its generator.
type Report struct{}

// Generate runs rulegen.NewContext over the training rows of m (nil =
// all rows).
func Generate(ctx context.Context, m *profile.Matrix, rows []int, cfg rulegen.Config, _ Options) (*rulegen.Generator, Report, error) {
	g, err := rulegen.NewContext(ctx, m, rows, cfg, nil)
	return g, Report{}, err
}
