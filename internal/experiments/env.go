// Package experiments regenerates every table and figure of the paper's
// evaluation: the experiments E1-E10 and the ablations A1-A4. Each
// experiment returns text tables; the ttbench command renders them to
// stdout or CSV.
package experiments

import (
	"sync"

	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/vision"
)

// Scale sizes the experiments. The paper profiles 35k utterances and
// 45k images; the default reproduction scale is smaller but statistically
// equivalent, and -scale flags can raise it.
type Scale struct {
	// SpeechN and VisionN are corpus sizes.
	SpeechN int
	VisionN int
	// Seed offsets corpora so several scales stay disjoint.
	Seed uint64
	// TrainFrac is the train/test split for tier generation (E6-E8).
	TrainFrac float64
	// ToleranceMax and ToleranceStep define the tier grid (§V: up to
	// 10% in 0.1% intervals).
	ToleranceMax  float64
	ToleranceStep float64
	// Gen configures the routing-rule generator.
	Gen rulegen.Config
	// KFolds is the cross-validation fold count for the guarantee audit.
	KFolds int
}

// DefaultScale is the scale cmd/ttbench runs at unless -quick.
func DefaultScale() Scale {
	return Scale{
		SpeechN:       6000,
		VisionN:       12000,
		Seed:          0,
		TrainFrac:     0.7,
		ToleranceMax:  0.10,
		ToleranceStep: 0.001,
		Gen:           rulegen.DefaultConfig(),
		KFolds:        10,
	}
}

// QuickScale is a reduced scale for tests and benchmarks.
func QuickScale() Scale {
	s := DefaultScale()
	s.SpeechN = 800
	s.VisionN = 2000
	s.ToleranceStep = 0.01
	s.Gen.MinTrials = 6
	s.Gen.MaxTrials = 40
	s.Gen.ThresholdPoints = 6
	s.Gen.IncludePickBest = false
	s.KFolds = 4
	return s
}

// Env lazily builds and caches the shared expensive state: corpora and
// profile matrices for both services.
type Env struct {
	Scale Scale

	once struct {
		speech, visionCPU, visionGPU, visionZoo sync.Once
	}
	speechCorpus *dataset.SpeechCorpus
	speechMatrix *profile.Matrix

	visionCPUCorpus *dataset.VisionCorpus
	visionCPUMatrix *profile.Matrix

	visionGPUCorpus *dataset.VisionCorpus
	visionGPUMatrix *profile.Matrix

	visionZooSvc    *service.Service
	visionZooMatrix *profile.Matrix

	tierOnce     sync.Once
	tierRunCache []*tierRun
}

// NewEnv creates an environment at the given scale.
func NewEnv(s Scale) *Env { return &Env{Scale: s} }

// Speech returns the speech corpus and its profile matrix.
func (e *Env) Speech() (*dataset.SpeechCorpus, *profile.Matrix) {
	e.once.speech.Do(func() {
		e.speechCorpus = dataset.NewSpeechCorpus(dataset.SpeechCorpusConfig{N: e.Scale.SpeechN, Seed: e.Scale.Seed})
		e.speechMatrix = profile.Build(e.speechCorpus.Service, e.speechCorpus.Requests)
	})
	return e.speechCorpus, e.speechMatrix
}

// VisionCPU returns the CPU-frontier vision corpus and matrix.
func (e *Env) VisionCPU() (*dataset.VisionCorpus, *profile.Matrix) {
	e.once.visionCPU.Do(func() {
		e.visionCPUCorpus = dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: e.Scale.VisionN, Seed: e.Scale.Seed, Device: vision.CPU})
		e.visionCPUMatrix = profile.Build(e.visionCPUCorpus.Service, e.visionCPUCorpus.Requests)
	})
	return e.visionCPUCorpus, e.visionCPUMatrix
}

// VisionGPU returns the GPU-frontier vision corpus and matrix.
func (e *Env) VisionGPU() (*dataset.VisionCorpus, *profile.Matrix) {
	e.once.visionGPU.Do(func() {
		e.visionGPUCorpus = dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: e.Scale.VisionN, Seed: e.Scale.Seed, Device: vision.GPU})
		e.visionGPUMatrix = profile.Build(e.visionGPUCorpus.Service, e.visionGPUCorpus.Requests)
	})
	return e.visionGPUCorpus, e.visionGPUMatrix
}

// VisionZoo returns the full-zoo (incl. off-frontier models) CPU service
// and matrix used by Table II.
func (e *Env) VisionZoo() (*service.Service, *profile.Matrix) {
	e.once.visionZoo.Do(func() {
		c, _ := e.VisionCPU()
		e.visionZooSvc = service.NewVisionZooService(c.World, vision.CPU)
		e.visionZooMatrix = profile.Build(e.visionZooSvc, c.Requests)
	})
	return e.visionZooSvc, e.visionZooMatrix
}

// ToleranceGrid returns the scale's tier grid.
func (e *Env) ToleranceGrid() []float64 {
	return rulegen.ToleranceGrid(e.Scale.ToleranceMax, e.Scale.ToleranceStep)
}
