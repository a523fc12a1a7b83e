package asr

// Versions returns the seven service-version presets along the engine's
// accuracy-latency Pareto frontier, mirroring Table I of the paper. They
// were produced the same way the paper describes — a grid sweep over the
// six heuristics, keeping the Pareto-optimal points (see
// TestVersionsFrontierIsPareto and the e1 experiment).
//
// asr-v1 is the most aggressively pruned (fastest); asr-v7 searches the
// widest space (most accurate).
func Versions() []Config {
	return []Config{
		{Name: "asr-v1", ShortlistK: 32, MaxActive: 14, BeamDelta: 9.5, TokenBudget: 3000, LMWeight: 0.9, LengthPenalty: 0},
		{Name: "asr-v2", ShortlistK: 36, MaxActive: 16, BeamDelta: 10, TokenBudget: 5000, LMWeight: 0.9, LengthPenalty: 0},
		{Name: "asr-v3", ShortlistK: 41, MaxActive: 18, BeamDelta: 10.5, TokenBudget: 8000, LMWeight: 0.95, LengthPenalty: 0},
		{Name: "asr-v4", ShortlistK: 47, MaxActive: 21, BeamDelta: 11, TokenBudget: 12000, LMWeight: 0.95, LengthPenalty: 0},
		{Name: "asr-v5", ShortlistK: 55, MaxActive: 25, BeamDelta: 12, TokenBudget: 18000, LMWeight: 1.0, LengthPenalty: 0},
		{Name: "asr-v6", ShortlistK: 66, MaxActive: 31, BeamDelta: 13, TokenBudget: 26000, LMWeight: 1.0, LengthPenalty: 0},
		{Name: "asr-v7", ShortlistK: 80, MaxActive: 40, BeamDelta: 14, TokenBudget: 40000, LMWeight: 1.0, LengthPenalty: 0},
	}
}
