// Package speech provides the linguistic and acoustic substrate for the
// simulated production-grade ASR engine: a synthetic vocabulary, a
// Zipfian unigram/bigram language model, word embeddings acting as the
// acoustic model's pronunciation space, and frame-observation synthesis
// with speaker and recording-environment variation.
//
// Substitution note: the paper uses a proprietary IBM
// engine with HMM acoustic/language models trained on real speech. The
// structural property its evaluation depends on — a probabilistic word
// graph whose exhaustive search is intractable, forcing heuristic beam
// search with an accuracy/latency knob — is fully preserved here.
package speech

import (
	"math"

	"github.com/toltiers/toltiers/internal/xrand"
)

// LanguageModel holds a synthetic vocabulary with Zipfian unigram
// frequencies and a sparse bigram model. Word IDs are dense integers in
// [0, VocabSize).
type LanguageModel struct {
	vocabSize int
	unigram   *xrand.Zipf
	// succ[w] lists the allowed successor words of w; succP are the
	// corresponding conditional probabilities (normalized).
	succ  [][]int
	succP [][]float64
	// uniLogP caches log unigram probabilities for scoring.
	uniLogP []float64
}

// LMConfig parameterizes language-model synthesis.
type LMConfig struct {
	// VocabSize is the number of distinct words. The paper's VoxForge
	// vocabulary is tens of thousands of words; the default experiment
	// scale uses a smaller vocabulary with the same Zipfian shape.
	VocabSize int
	// ZipfExponent shapes the unigram distribution (≈1 for natural
	// language).
	ZipfExponent float64
	// Branching is the number of plausible successors per word. Small
	// branching concentrates bigram mass, as in real language.
	Branching int
	// Seed makes the synthesized model reproducible.
	Seed uint64
}

// DefaultLMConfig returns the configuration used by the experiments.
func DefaultLMConfig() LMConfig {
	return LMConfig{VocabSize: 1200, ZipfExponent: 1.05, Branching: 24, Seed: 0x5eed01}
}

// NewLanguageModel synthesizes a language model from cfg.
func NewLanguageModel(cfg LMConfig) *LanguageModel {
	if cfg.VocabSize <= 1 {
		panic("speech: VocabSize must exceed 1")
	}
	if cfg.Branching <= 0 {
		cfg.Branching = 16
	}
	if cfg.Branching > cfg.VocabSize {
		cfg.Branching = cfg.VocabSize
	}
	rng := xrand.New(cfg.Seed)
	lm := &LanguageModel{
		vocabSize: cfg.VocabSize,
		unigram:   xrand.NewZipf(cfg.VocabSize, cfg.ZipfExponent),
	}
	lm.uniLogP = make([]float64, cfg.VocabSize)
	for w := 0; w < cfg.VocabSize; w++ {
		lm.uniLogP[w] = math.Log(lm.unigram.P(w))
	}
	lm.succ = make([][]int, cfg.VocabSize)
	lm.succP = make([][]float64, cfg.VocabSize)
	for w := 0; w < cfg.VocabSize; w++ {
		r := rng.Split(uint64(w) + 1)
		succ := make([]int, 0, cfg.Branching)
		seen := make(map[int]bool, cfg.Branching)
		for len(succ) < cfg.Branching {
			// Successors follow the global Zipf, biased so frequent
			// words are common successors — mirrors natural bigrams.
			s := lm.unigram.Sample(r)
			if !seen[s] {
				seen[s] = true
				succ = append(succ, s)
			}
		}
		probs := make([]float64, len(succ))
		total := 0.0
		for i, s := range succ {
			// Mix unigram prior with random affinity.
			p := lm.unigram.P(s) * (0.25 + r.Float64())
			probs[i] = p
			total += p
		}
		for i := range probs {
			probs[i] /= total
		}
		lm.succ[w] = succ
		lm.succP[w] = probs
	}
	return lm
}

// VocabSize returns the number of words in the vocabulary.
func (lm *LanguageModel) VocabSize() int { return lm.vocabSize }

// SampleSentence draws a sentence of the given length from the model:
// the first word from the unigram, subsequent words from the bigram.
func (lm *LanguageModel) SampleSentence(rng *xrand.RNG, length int) []int {
	if length <= 0 {
		return nil
	}
	out := make([]int, length)
	out[0] = lm.unigram.Sample(rng)
	for i := 1; i < length; i++ {
		out[i] = lm.sampleSuccessor(rng, out[i-1])
	}
	return out
}

func (lm *LanguageModel) sampleSuccessor(rng *xrand.RNG, w int) int {
	u := rng.Float64()
	acc := 0.0
	probs := lm.succP[w]
	for i, p := range probs {
		acc += p
		if u <= acc {
			return lm.succ[w][i]
		}
	}
	return lm.succ[w][len(lm.succ[w])-1]
}

// floorLogP is the backoff log-probability for unseen bigrams; the decoder
// needs every transition scorable.
const floorLogP = -14.0

// BigramLogP returns log P(next | prev) with unigram-weighted backoff for
// pairs outside the sparse successor lists.
func (lm *LanguageModel) BigramLogP(prev, next int) float64 {
	succ := lm.succ[prev]
	for i, s := range succ {
		if s == next {
			return math.Log(lm.succP[prev][i])
		}
	}
	// Backoff: heavily discounted unigram.
	lp := lm.uniLogP[next] + floorLogP/2
	if lp < floorLogP {
		lp = floorLogP
	}
	return lp
}

// UnigramLogP returns log P(w) under the unigram model.
func (lm *LanguageModel) UnigramLogP(w int) float64 { return lm.uniLogP[w] }
