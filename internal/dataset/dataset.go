// Package dataset assembles the evaluation corpora (synthetic VoxForge-
// and ILSVRC-like request sets) and provides the train/test and k-fold
// splitting the paper's evaluation protocol uses (§IV-D: 10-fold cross
// validation).
package dataset

import (
	"fmt"

	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/speech"
	"github.com/toltiers/toltiers/internal/vision"
	"github.com/toltiers/toltiers/internal/xrand"
)

// SpeechCorpusConfig sizes the speech corpus.
type SpeechCorpusConfig struct {
	// N is the number of utterances (the paper uses 35k VoxForge
	// utterances; the default experiment scale is smaller).
	N int
	// Seed offsets utterance IDs so different seeds give disjoint
	// corpora.
	Seed uint64
	// LM and AM override the default substrate models when non-nil.
	LM *speech.LanguageModel
	AM *speech.AcousticModel
}

// SpeechCorpus holds the speech service plus its requests.
type SpeechCorpus struct {
	Service  *service.Service
	Requests []*service.Request
	LM       *speech.LanguageModel
	AM       *speech.AcousticModel
}

// NewSpeechCorpus builds the default speech evaluation corpus: the
// synthesized language/acoustic models, the seven-version ASR service,
// and N utterances.
func NewSpeechCorpus(cfg SpeechCorpusConfig) *SpeechCorpus {
	if cfg.N <= 0 {
		cfg.N = 4000
	}
	lm := cfg.LM
	if lm == nil {
		lm = speech.NewLanguageModel(speech.DefaultLMConfig())
	}
	am := cfg.AM
	if am == nil {
		am = speech.NewAcousticModel(lm.VocabSize(), speech.DefaultAcousticConfig())
	}
	syn := speech.NewSynthesizer(lm, am, 0xc0de+cfg.Seed)
	first := int(cfg.Seed%(1<<20)) * 1_000_000
	utts := syn.Corpus(first, cfg.N)
	return &SpeechCorpus{
		Service:  service.NewASRService(lm, am),
		Requests: service.SpeechRequests(utts),
		LM:       lm,
		AM:       am,
	}
}

// VisionCorpusConfig sizes the vision corpus.
type VisionCorpusConfig struct {
	// N is the number of images (the paper uses 45k ILSVRC2012
	// validation images).
	N int
	// Seed offsets image IDs.
	Seed uint64
	// Device selects the deployment hardware for the service versions.
	Device vision.Device
	// World overrides the default universe when non-nil.
	World *vision.World
}

// VisionCorpus holds the vision service plus its requests.
type VisionCorpus struct {
	Service  *service.Service
	Requests []*service.Request
	World    *vision.World
}

// NewVisionCorpus builds the default vision evaluation corpus.
func NewVisionCorpus(cfg VisionCorpusConfig) *VisionCorpus {
	if cfg.N <= 0 {
		cfg.N = 10000
	}
	w := cfg.World
	if w == nil {
		w = vision.NewWorld(vision.DefaultWorldConfig())
	}
	first := int(cfg.Seed%(1<<20)) * 1_000_000
	imgs := w.Corpus(first, cfg.N)
	return &VisionCorpus{
		Service:  service.NewVisionService(w, cfg.Device),
		Requests: service.VisionRequests(imgs),
		World:    w,
	}
}

// ByName builds one of the standard evaluation corpora by its CLI name
// — "asr", "vision" (GPU) or "vision-cpu" — with n requests (n <= 0
// selects the experiments' default size). It is the service selector
// of the cmd/ binaries.
func ByName(name string, n int) (*service.Service, []*service.Request, error) {
	switch name {
	case "asr":
		c := NewSpeechCorpus(SpeechCorpusConfig{N: n})
		return c.Service, c.Requests, nil
	case "vision":
		c := NewVisionCorpus(VisionCorpusConfig{N: n, Device: vision.GPU})
		return c.Service, c.Requests, nil
	case "vision-cpu":
		c := NewVisionCorpus(VisionCorpusConfig{N: n, Device: vision.CPU})
		return c.Service, c.Requests, nil
	}
	return nil, nil, fmt.Errorf("unknown service %q (want asr | vision | vision-cpu)", name)
}

// Split partitions indices [0, n) into a training and test set with the
// given training fraction, shuffled deterministically by seed.
func Split(n int, trainFrac float64, seed uint64) (train, test []int) {
	if trainFrac < 0 || trainFrac > 1 {
		panic(fmt.Sprintf("dataset: trainFrac %v outside [0,1]", trainFrac))
	}
	perm := xrand.New(seed).Perm(n)
	cut := int(trainFrac * float64(n))
	return perm[:cut], perm[cut:]
}

// KFold yields k cross-validation folds over [0, n): fold i's test set
// is the i-th shard of a deterministic shuffle, and its training set is
// everything else. It panics if k < 2 or n < k.
func KFold(n, k int, seed uint64) []Fold {
	if k < 2 {
		panic("dataset: KFold needs k >= 2")
	}
	if n < k {
		panic("dataset: KFold needs n >= k")
	}
	perm := xrand.New(seed).Perm(n)
	folds := make([]Fold, k)
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		test := append([]int(nil), perm[lo:hi]...)
		train := make([]int, 0, n-(hi-lo))
		train = append(train, perm[:lo]...)
		train = append(train, perm[hi:]...)
		folds[i] = Fold{Train: train, Test: test}
	}
	return folds
}

// Fold is one cross-validation fold.
type Fold struct {
	Train []int
	Test  []int
}
