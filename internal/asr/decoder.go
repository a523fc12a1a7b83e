// Package asr implements the simulated production-grade automatic speech
// recognition engine: a frame-synchronous, token-passing beam-search
// decoder over the speech substrate's language/acoustic models, with six
// pruning heuristics that trade accuracy for latency exactly as in the
// paper's §II-A/§III-A, plus the seven Pareto-frontier version presets.
package asr

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/toltiers/toltiers/internal/speech"
)

// Config holds the six beam-search heuristics of one engine version.
// They correspond to the paper's two orthogonal concerns — hypothesis
// pruning (top-N) and pruning scope (local / global / network):
//
//   - ShortlistK   (local):   per-frame emission shortlist; only the K
//     acoustically best words enter expansion.
//   - MaxActive    (global):  top-N hypothesis pruning per frame.
//   - BeamDelta    (global):  score-window pruning; hypotheses more than
//     BeamDelta worse than the frame best are dropped.
//   - TokenBudget  (network): cap on tokens across the whole utterance;
//     once exhausted the decoder degrades to greedy search.
//   - LMWeight:    language-model scale in the combined score.
//   - LengthPenalty: per-word score bias (word insertion penalty).
type Config struct {
	Name          string
	ShortlistK    int
	MaxActive     int
	BeamDelta     float64
	TokenBudget   int
	LMWeight      float64
	LengthPenalty float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.ShortlistK < 1 {
		return fmt.Errorf("asr: ShortlistK must be >= 1, got %d", c.ShortlistK)
	}
	if c.MaxActive < 1 {
		return fmt.Errorf("asr: MaxActive must be >= 1, got %d", c.MaxActive)
	}
	if c.BeamDelta <= 0 {
		return fmt.Errorf("asr: BeamDelta must be positive, got %v", c.BeamDelta)
	}
	if c.TokenBudget < 1 {
		return fmt.Errorf("asr: TokenBudget must be >= 1, got %d", c.TokenBudget)
	}
	return nil
}

// Result is the decoder's output for one utterance.
type Result struct {
	// Words is the hypothesis transcript.
	Words []int
	// Score is the best path's combined log score.
	Score float64
	// Margin is the score gap between the best and second-best final
	// hypotheses (0 when only one survives).
	Margin float64
	// Confidence is the calibrated word-posterior confidence in [0, 1]
	// (geometric mean over frames of the chosen word's acoustic
	// posterior, fused with the hypothesis margin).
	Confidence float64
	// WorkUnits counts the deterministic work performed: acoustic
	// scoring, shortlist selection and hypothesis expansion.
	WorkUnits int64
	// Latency is WorkUnits converted through the engine's latency model.
	Latency time.Duration
	// TokensUsed counts beam tokens consumed (network-scope pruning).
	TokensUsed int
	// Degraded reports whether the token budget forced greedy search.
	Degraded bool
}

// Work-unit weights of the latency model. Emission scoring dominates in
// production engines (a large acoustic DNN per frame); expansion cost
// scales with the explored search space. NanosPerUnit converts units to
// simulated wall time, calibrated so the default corpus decodes near
// real-time factor ≈0.2 for the fastest preset.
const (
	unitEmissionPerDim = 1.0
	unitSelectPerWord  = 1.0
	unitPerExpansion   = 28.0
	NanosPerUnit       = 4500
)

// Decoder decodes utterances under one Config. It keeps reusable scratch
// buffers, so a Decoder must not be used concurrently; create one per
// goroutine (they share the immutable models).
type Decoder struct {
	lm  *speech.LanguageModel
	am  *speech.AcousticModel
	cfg Config

	// scratch
	emis      []float64 // per-frame emission scores, |V|
	order     []int     // shortlist selection scratch
	frameEmis [][]float64
	frameLogZ []float64
	posterior float64
}

// NewDecoder builds a decoder for the given models and configuration.
// It panics on an invalid configuration (programming error).
func NewDecoder(lm *speech.LanguageModel, am *speech.AcousticModel, cfg Config) *Decoder {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	k := cfg.ShortlistK
	if k > lm.VocabSize() {
		k = lm.VocabSize()
		cfg.ShortlistK = k
	}
	return &Decoder{
		lm:    lm,
		am:    am,
		cfg:   cfg,
		emis:  make([]float64, lm.VocabSize()),
		order: make([]int, lm.VocabSize()),
	}
}

// token is one partial hypothesis.
type token struct {
	score float64
	word  int
	prev  *token
}

// posteriorBeta is the inverse temperature of the acoustic posterior
// used for confidence estimation.
const posteriorBeta = 1.0

// Decode runs beam search over the utterance and returns the hypothesis
// with confidence and work accounting.
func (d *Decoder) Decode(u *speech.Utterance) Result {
	nFrames := len(u.Frames)
	var res Result
	if nFrames == 0 {
		res.Confidence = 1
		return res
	}
	V := d.lm.VocabSize()
	dim := d.am.Dim()
	cfg := d.cfg

	// Retain per-frame emissions for posterior computation.
	if cap(d.frameEmis) < nFrames {
		d.frameEmis = make([][]float64, nFrames)
		for i := range d.frameEmis {
			d.frameEmis[i] = make([]float64, V)
		}
		d.frameLogZ = make([]float64, nFrames)
	}
	frameEmis := d.frameEmis[:nFrames]
	for i := range frameEmis {
		if frameEmis[i] == nil {
			frameEmis[i] = make([]float64, V)
		}
	}
	frameLogZ := d.frameLogZ[:nFrames]

	var work int64
	active := make([]*token, 0, cfg.MaxActive)
	merged := make(map[int]*token, cfg.ShortlistK)
	tokensUsed := 0
	degraded := false

	for t := 0; t < nFrames; t++ {
		emis := frameEmis[t]
		d.am.ScoreAll(u.Frames[t], emis)
		work += int64(float64(V*dim) * unitEmissionPerDim)
		frameLogZ[t] = logSumExp(emis)

		// Local pruning: emission shortlist.
		k := cfg.ShortlistK
		shortlist := d.topK(emis, k)
		work += int64(float64(V) * unitSelectPerWord)

		// Network pruning: degrade to greedy once the budget is gone.
		maxActive := cfg.MaxActive
		if tokensUsed >= cfg.TokenBudget {
			degraded = true
			maxActive = 1
			if len(shortlist) > 4 {
				shortlist = shortlist[:4]
			}
		}

		clear(merged)
		if t == 0 {
			for _, w := range shortlist {
				sc := emis[w] + cfg.LMWeight*d.lm.UnigramLogP(w) + cfg.LengthPenalty
				if cur, ok := merged[w]; !ok || sc > cur.score {
					merged[w] = &token{score: sc, word: w}
				}
			}
			work += int64(float64(len(shortlist)) * unitPerExpansion)
		} else {
			for _, tok := range active {
				for _, w := range shortlist {
					sc := tok.score + emis[w] + cfg.LMWeight*d.lm.BigramLogP(tok.word, w) + cfg.LengthPenalty
					if cur, ok := merged[w]; !ok || sc > cur.score {
						merged[w] = &token{score: sc, word: w, prev: tok}
					}
				}
			}
			work += int64(float64(len(active)*len(shortlist)) * unitPerExpansion)
		}

		// Global pruning: top-N plus score window.
		active = active[:0]
		for _, tok := range merged {
			active = append(active, tok)
		}
		sort.Slice(active, func(i, j int) bool {
			a, b := active[i], active[j]
			if a.score != b.score {
				return a.score > b.score
			}
			return a.word < b.word // deterministic tie-break
		})
		if len(active) > maxActive {
			active = active[:maxActive]
		}
		best := active[0].score
		cut := len(active)
		for i, tok := range active {
			if best-tok.score > cfg.BeamDelta {
				cut = i
				break
			}
		}
		active = active[:cut]
		tokensUsed += len(active)
	}

	// Final hypothesis and margin.
	bestTok := active[0]
	res.Score = bestTok.score
	if len(active) > 1 {
		res.Margin = bestTok.score - active[1].score
	} else {
		res.Margin = cfg.BeamDelta
	}

	// Backtrace.
	words := make([]int, 0, nFrames)
	for tok := bestTok; tok != nil; tok = tok.prev {
		words = append(words, tok.word)
	}
	for i, j := 0, len(words)-1; i < j; i, j = i+1, j-1 {
		words[i], words[j] = words[j], words[i]
	}
	res.Words = words

	// Confidence: geometric-mean acoustic posterior of the chosen path,
	// fused with the normalized hypothesis margin. Both signals are
	// available in production engines (lattice posteriors, n-best gap).
	logPost := 0.0
	for t, w := range words {
		logPost += posteriorBeta*frameEmis[t][w] - frameLogZ[t]
	}
	meanPost := math.Exp(logPost / float64(len(words)))
	marginSig := 1 - math.Exp(-res.Margin/(2*float64(len(words))))
	res.Confidence = clamp01(0.75*meanPost + 0.25*marginSig)

	res.WorkUnits = work
	res.Latency = time.Duration(work * NanosPerUnit)
	res.TokensUsed = tokensUsed
	res.Degraded = degraded
	return res
}

// topK selects the indices of the k highest-scoring entries of scores,
// in descending score order, reusing the decoder's order scratch.
func (d *Decoder) topK(scores []float64, k int) []int {
	if k >= len(scores) {
		idx := d.order[:len(scores)]
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
		return idx
	}
	// Maintain a small min-heap of the best k in the prefix of order.
	heap := d.order[:0]
	less := func(a, b int) bool { // heap orders by ascending score
		return scores[a] < scores[b]
	}
	push := func(w int) {
		heap = append(heap, w)
		i := len(heap) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if less(heap[i], heap[parent]) {
				heap[i], heap[parent] = heap[parent], heap[i]
				i = parent
			} else {
				break
			}
		}
	}
	siftDown := func() {
		i := 0
		n := len(heap)
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < n && less(heap[l], heap[smallest]) {
				smallest = l
			}
			if r < n && less(heap[r], heap[smallest]) {
				smallest = r
			}
			if smallest == i {
				return
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
	}
	for w := range scores {
		if len(heap) < k {
			push(w)
		} else if scores[w] > scores[heap[0]] {
			heap[0] = w
			siftDown()
		}
	}
	sort.Slice(heap, func(a, b int) bool { return scores[heap[a]] > scores[heap[b]] })
	return heap
}

func logSumExp(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Exp(x - m)
	}
	return m + math.Log(sum)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
