//go:build race

package stats

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation allocates on paths that are
// allocation-free in production builds — the alloc-regression pins skip
// themselves under it.
const raceEnabled = true
