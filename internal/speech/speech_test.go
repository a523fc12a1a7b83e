package speech

import (
	"math"
	"testing"

	"github.com/toltiers/toltiers/internal/xrand"
)

func testLM(t *testing.T) *LanguageModel {
	t.Helper()
	cfg := DefaultLMConfig()
	cfg.VocabSize = 200
	cfg.Branching = 12
	return NewLanguageModel(cfg)
}

func TestLMDeterministic(t *testing.T) {
	cfg := DefaultLMConfig()
	cfg.VocabSize = 100
	a := NewLanguageModel(cfg)
	b := NewLanguageModel(cfg)
	for w := 0; w < 100; w++ {
		sa, pa := a.succ[w], a.succP[w]
		sb, pb := b.succ[w], b.succP[w]
		if len(sa) != len(sb) {
			t.Fatalf("successor count differs for word %d", w)
		}
		for i := range sa {
			if sa[i] != sb[i] || pa[i] != pb[i] {
				t.Fatalf("successor %d of word %d differs", i, w)
			}
		}
	}
}

func TestLMSuccessorProbabilitiesNormalized(t *testing.T) {
	lm := testLM(t)
	for w := 0; w < lm.VocabSize(); w++ {
		probs := lm.succP[w]
		sum := 0.0
		for _, p := range probs {
			if p <= 0 {
				t.Fatalf("word %d has non-positive successor probability %v", w, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("word %d successor probs sum to %v", w, sum)
		}
	}
}

func TestLMBigramBackoff(t *testing.T) {
	lm := testLM(t)
	succ := lm.succ[0]
	inList := map[int]bool{}
	for _, s := range succ {
		inList[s] = true
	}
	// Find a word outside the successor list.
	outside := -1
	for w := 0; w < lm.VocabSize(); w++ {
		if !inList[w] {
			outside = w
			break
		}
	}
	if outside == -1 {
		t.Skip("all words are successors; enlarge vocab")
	}
	lpIn := lm.BigramLogP(0, succ[0])
	lpOut := lm.BigramLogP(0, outside)
	if lpOut >= lpIn {
		t.Fatalf("backoff bigram %v not lower than explicit %v", lpOut, lpIn)
	}
	if lpOut < floorLogP-1e-9 {
		t.Fatalf("backoff %v below floor %v", lpOut, floorLogP)
	}
}

func TestLMSampleSentence(t *testing.T) {
	lm := testLM(t)
	r := xrand.New(5)
	s := lm.SampleSentence(r, 10)
	if len(s) != 10 {
		t.Fatalf("length = %d", len(s))
	}
	for _, w := range s {
		if w < 0 || w >= lm.VocabSize() {
			t.Fatalf("word out of range: %d", w)
		}
	}
	if got := lm.SampleSentence(r, 0); got != nil {
		t.Fatalf("zero-length sentence = %v", got)
	}
}

func TestLMSampledBigramsAreExplicit(t *testing.T) {
	lm := testLM(t)
	r := xrand.New(6)
	for trial := 0; trial < 50; trial++ {
		s := lm.SampleSentence(r, 6)
		for j := 1; j < len(s); j++ {
			succ := lm.succ[s[j-1]]
			found := false
			for _, w := range succ {
				if w == s[j] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("sampled bigram (%d,%d) not in successor list", s[j-1], s[j])
			}
		}
	}
}

func TestAcousticScoreSelfIsBest(t *testing.T) {
	lm := testLM(t)
	am := NewAcousticModel(lm.VocabSize(), DefaultAcousticConfig())
	// With zero noise, a word's own embedding must score highest.
	r := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		w := r.Intn(lm.VocabSize())
		obs := am.EmitFrame(r, w, 0)
		best, bestScore := -1, math.Inf(-1)
		scores := make([]float64, lm.VocabSize())
		am.ScoreAll(obs, scores)
		for v, sc := range scores {
			if sc > bestScore {
				best, bestScore = v, sc
			}
		}
		if best != w {
			t.Fatalf("clean frame for word %d scored best as %d", w, best)
		}
		if math.Abs(bestScore) > 1e-9 {
			t.Fatalf("self score should be 0, got %v", bestScore)
		}
	}
}

func TestAcousticNoiseDegradesRanking(t *testing.T) {
	lm := testLM(t)
	am := NewAcousticModel(lm.VocabSize(), DefaultAcousticConfig())
	rank := func(sigma float64) float64 {
		r := xrand.New(11)
		correct := 0
		const n = 400
		scores := make([]float64, lm.VocabSize())
		for i := 0; i < n; i++ {
			w := r.Intn(lm.VocabSize())
			obs := am.EmitFrame(r, w, sigma)
			am.ScoreAll(obs, scores)
			best, bestScore := -1, math.Inf(-1)
			for v, sc := range scores {
				if sc > bestScore {
					best, bestScore = v, sc
				}
			}
			if best == w {
				correct++
			}
		}
		return float64(correct) / n
	}
	clean, noisy := rank(0.1), rank(1.5)
	if clean < 0.99 {
		t.Fatalf("near-clean acoustic accuracy too low: %v", clean)
	}
	if noisy >= clean {
		t.Fatalf("noise did not degrade accuracy: clean %v noisy %v", clean, noisy)
	}
}

func TestSynthesizerDeterministicUtterances(t *testing.T) {
	lm := testLM(t)
	am := NewAcousticModel(lm.VocabSize(), DefaultAcousticConfig())
	s1 := NewSynthesizer(lm, am, 42)
	s2 := NewSynthesizer(lm, am, 42)
	u1, u2 := s1.Utterance(123), s2.Utterance(123)
	if u1.Speaker != u2.Speaker || u1.Env != u2.Env || u1.Sigma != u2.Sigma {
		t.Fatal("utterance metadata not deterministic")
	}
	if len(u1.Words) != len(u2.Words) {
		t.Fatal("transcript length not deterministic")
	}
	for i := range u1.Words {
		if u1.Words[i] != u2.Words[i] {
			t.Fatal("transcript not deterministic")
		}
	}
	for i := range u1.Frames {
		for d := range u1.Frames[i] {
			if u1.Frames[i][d] != u2.Frames[i][d] {
				t.Fatal("frames not deterministic")
			}
		}
	}
}

func TestSynthesizerCorpusShape(t *testing.T) {
	lm := testLM(t)
	am := NewAcousticModel(lm.VocabSize(), DefaultAcousticConfig())
	s := NewSynthesizer(lm, am, 1)
	corpus := s.Corpus(0, 100)
	if len(corpus) != 100 {
		t.Fatalf("corpus size = %d", len(corpus))
	}
	for _, u := range corpus {
		if u.Len() < s.MinWords || u.Len() > s.MaxWords {
			t.Fatalf("utterance %d length %d outside [%d,%d]", u.ID, u.Len(), s.MinWords, s.MaxWords)
		}
		if len(u.Frames) != u.Len() {
			t.Fatalf("utterance %d: %d frames for %d words", u.ID, len(u.Frames), u.Len())
		}
		if u.Sigma <= 0 {
			t.Fatalf("utterance %d sigma = %v", u.ID, u.Sigma)
		}
		if u.AudioSeconds() <= 0 {
			t.Fatalf("utterance %d audio seconds = %v", u.ID, u.AudioSeconds())
		}
	}
	// IDs distinct and sequential.
	for i, u := range corpus {
		if u.ID != i {
			t.Fatalf("corpus[%d].ID = %d", i, u.ID)
		}
	}
}

func TestSynthesizerSigmaVariation(t *testing.T) {
	lm := testLM(t)
	am := NewAcousticModel(lm.VocabSize(), DefaultAcousticConfig())
	s := NewSynthesizer(lm, am, 9)
	corpus := s.Corpus(0, 500)
	minS, maxS := math.Inf(1), math.Inf(-1)
	for _, u := range corpus {
		if u.Sigma < minS {
			minS = u.Sigma
		}
		if u.Sigma > maxS {
			maxS = u.Sigma
		}
	}
	if maxS/minS < 1.3 {
		t.Fatalf("speaker/env variation too small: sigma range [%v, %v]", minS, maxS)
	}
}
