package asr

import (
	"math"
	"testing"

	"github.com/toltiers/toltiers/internal/metrics"
	"github.com/toltiers/toltiers/internal/speech"
	"github.com/toltiers/toltiers/internal/xrand"
)

func testModels(t testing.TB) (*speech.LanguageModel, *speech.AcousticModel, *speech.Synthesizer) {
	t.Helper()
	lmCfg := speech.DefaultLMConfig()
	lmCfg.VocabSize = 300
	lm := speech.NewLanguageModel(lmCfg)
	am := speech.NewAcousticModel(lm.VocabSize(), speech.DefaultAcousticConfig())
	syn := speech.NewSynthesizer(lm, am, 77)
	return lm, am, syn
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "x", ShortlistK: 4, MaxActive: 2, BeamDelta: 5, TokenBudget: 100}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{ShortlistK: 0, MaxActive: 2, BeamDelta: 5, TokenBudget: 10},
		{ShortlistK: 4, MaxActive: 0, BeamDelta: 5, TokenBudget: 10},
		{ShortlistK: 4, MaxActive: 2, BeamDelta: 0, TokenBudget: 10},
		{ShortlistK: 4, MaxActive: 2, BeamDelta: 5, TokenBudget: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewDecoderPanicsOnInvalid(t *testing.T) {
	lm, am, _ := testModels(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDecoder(lm, am, Config{})
}

func TestDecodeEmptyUtterance(t *testing.T) {
	lm, am, _ := testModels(t)
	d := NewDecoder(lm, am, Versions()[0])
	res := d.Decode(&speech.Utterance{})
	if len(res.Words) != 0 || res.WorkUnits != 0 {
		t.Fatalf("empty utterance result: %+v", res)
	}
}

func TestDecodeDeterministic(t *testing.T) {
	lm, am, syn := testModels(t)
	u := syn.Utterance(5)
	d1 := NewDecoder(lm, am, Versions()[2])
	d2 := NewDecoder(lm, am, Versions()[2])
	r1, r2 := d1.Decode(u), d2.Decode(u)
	if r1.Score != r2.Score || r1.WorkUnits != r2.WorkUnits || len(r1.Words) != len(r2.Words) {
		t.Fatalf("decode not deterministic: %+v vs %+v", r1, r2)
	}
	for i := range r1.Words {
		if r1.Words[i] != r2.Words[i] {
			t.Fatal("hypotheses differ")
		}
	}
	// Repeated decodes on the same decoder (scratch reuse) must agree too.
	r3 := d1.Decode(u)
	if r3.Score != r1.Score || len(r3.Words) != len(r1.Words) {
		t.Fatal("scratch reuse changed the result")
	}
}

func TestDecodeCleanSpeechIsPerfect(t *testing.T) {
	lm, am, _ := testModels(t)
	// Noise-free utterances must decode exactly even with modest beams.
	syn := speech.NewSynthesizer(lm, am, 3)
	syn.BaseSigma = 0.01
	d := NewDecoder(lm, am, Versions()[1])
	for id := 0; id < 20; id++ {
		u := syn.Utterance(id)
		res := d.Decode(u)
		if wer := metrics.WER(res.Words, u.Words); wer != 0 {
			t.Fatalf("clean utterance %d WER = %v (hyp %v ref %v)", id, wer, res.Words, u.Words)
		}
		if res.Confidence < 0.5 {
			t.Errorf("clean utterance %d confidence = %v, want high", id, res.Confidence)
		}
	}
}

func TestWiderBeamNeverSlower(t *testing.T) {
	lm, am, syn := testModels(t)
	u := syn.Utterance(9)
	prev := int64(-1)
	for _, cfg := range Versions() {
		res := NewDecoder(lm, am, cfg).Decode(u)
		if res.WorkUnits < prev {
			t.Fatalf("%s did less work (%d) than a narrower config (%d)", cfg.Name, res.WorkUnits, prev)
		}
		prev = res.WorkUnits
	}
}

func TestVersionsSpanLatencyRange(t *testing.T) {
	// This calibration holds at the default experiment scale; a smaller
	// vocabulary shrinks the fixed acoustic-scoring cost and inflates
	// the ratio.
	lm := speech.NewLanguageModel(speech.DefaultLMConfig())
	am := speech.NewAcousticModel(lm.VocabSize(), speech.DefaultAcousticConfig())
	syn := speech.NewSynthesizer(lm, am, 77)
	corpus := syn.Corpus(0, 60)
	vs := Versions()
	fast := NewDecoder(lm, am, vs[0])
	slow := NewDecoder(lm, am, vs[len(vs)-1])
	var fastWork, slowWork int64
	for _, u := range corpus {
		fastWork += fast.Decode(u).WorkUnits
		slowWork += slow.Decode(u).WorkUnits
	}
	ratio := float64(slowWork) / float64(fastWork)
	if ratio < 1.8 || ratio > 4.5 {
		t.Fatalf("v7/v1 work ratio = %v, want within [1.8, 4.5] (paper: ~2.6x)", ratio)
	}
}

func TestAccuracyImprovesWithBeamWidth(t *testing.T) {
	lm, am, syn := testModels(t)
	corpus := syn.Corpus(100, 150)
	vs := Versions()
	werOf := func(cfg Config) float64 {
		d := NewDecoder(lm, am, cfg)
		var errs, words int
		for _, u := range corpus {
			res := d.Decode(u)
			we := metrics.AlignWords(res.Words, u.Words)
			errs += we.Total()
			words += we.RefWords
		}
		return float64(errs) / float64(words)
	}
	w1 := werOf(vs[0])
	w7 := werOf(vs[len(vs)-1])
	if w7 >= w1 {
		t.Fatalf("widest beam WER %v not better than narrowest %v", w7, w1)
	}
	if w1 <= 0 || w1 >= 1 {
		t.Fatalf("v1 WER out of plausible range: %v", w1)
	}
}

func TestConfidenceCorrelatesWithCorrectness(t *testing.T) {
	lm, am, syn := testModels(t)
	corpus := syn.Corpus(300, 250)
	d := NewDecoder(lm, am, Versions()[0])
	var confRight, confWrong []float64
	for _, u := range corpus {
		res := d.Decode(u)
		if metrics.WER(res.Words, u.Words) == 0 {
			confRight = append(confRight, res.Confidence)
		} else {
			confWrong = append(confWrong, res.Confidence)
		}
	}
	if len(confRight) < 10 || len(confWrong) < 10 {
		t.Skipf("degenerate split: %d right, %d wrong", len(confRight), len(confWrong))
	}
	meanR := mean(confRight)
	meanW := mean(confWrong)
	if meanR <= meanW {
		t.Fatalf("confidence not discriminative: right %v <= wrong %v", meanR, meanW)
	}
}

func TestConfidenceInRange(t *testing.T) {
	lm, am, syn := testModels(t)
	d := NewDecoder(lm, am, Versions()[3])
	for id := 0; id < 60; id++ {
		res := d.Decode(syn.Utterance(id))
		if res.Confidence < 0 || res.Confidence > 1 || math.IsNaN(res.Confidence) {
			t.Fatalf("confidence out of range: %v", res.Confidence)
		}
	}
}

func TestTokenBudgetDegradation(t *testing.T) {
	lm, am, syn := testModels(t)
	cfg := Versions()[4]
	cfg.TokenBudget = 5 // absurdly small: must degrade
	d := NewDecoder(lm, am, cfg)
	u := syn.Utterance(12)
	res := d.Decode(u)
	if !res.Degraded {
		t.Fatal("tiny token budget did not trigger degradation")
	}
	full := NewDecoder(lm, am, Versions()[4]).Decode(u)
	if full.Degraded {
		t.Fatal("normal budget triggered degradation")
	}
	if res.WorkUnits >= full.WorkUnits {
		t.Fatalf("degraded decode did not reduce work: %d vs %d", res.WorkUnits, full.WorkUnits)
	}
}

func TestHypothesisLengthMatchesFrames(t *testing.T) {
	lm, am, syn := testModels(t)
	d := NewDecoder(lm, am, Versions()[1])
	for id := 0; id < 40; id++ {
		u := syn.Utterance(id)
		res := d.Decode(u)
		if len(res.Words) != u.Len() {
			t.Fatalf("utterance %d: hypothesis length %d != frames %d", id, len(res.Words), u.Len())
		}
	}
}

func TestVersionsNamedAndOrdered(t *testing.T) {
	vs := Versions()
	if len(vs) != 7 {
		t.Fatalf("want 7 versions, got %d", len(vs))
	}
	for i, v := range vs {
		if err := v.Validate(); err != nil {
			t.Errorf("version %d invalid: %v", i, err)
		}
		if i > 0 && vs[i-1].ShortlistK >= v.ShortlistK {
			t.Errorf("version %d shortlist not increasing", i)
		}
	}
}

func TestTopKSelection(t *testing.T) {
	lm, am, _ := testModels(t)
	d := NewDecoder(lm, am, Versions()[0])
	rng := xrand.New(4)
	scores := make([]float64, lm.VocabSize())
	for i := range scores {
		scores[i] = rng.Float64()
	}
	got := d.topK(scores, 5)
	if len(got) != 5 {
		t.Fatalf("topK returned %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if scores[got[i]] > scores[got[i-1]] {
			t.Fatal("topK not descending")
		}
	}
	// Verify against full sort.
	full := d.topK(scores, lm.VocabSize())
	for i := 0; i < 5; i++ {
		if scores[full[i]] != scores[got[i]] {
			t.Fatalf("topK mismatch at %d", i)
		}
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
