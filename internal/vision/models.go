// Package vision implements the simulated image-classification service:
// a class-prototype feature-space model of CNN inference with a model zoo
// spanning the paper's accuracy-latency frontier (SqueezeNet through a
// state-of-the-art flagship), CPU/GPU device latency profiles, and
// calibrated softmax confidences.
//
// Substitution note: instead of trained CNNs over
// ILSVRC2012, each image is its class prototype plus *shared* difficulty
// noise and *model-specific* residual noise; a model's quality is how
// strongly it attenuates the shared noise. This preserves the three
// statistical properties the paper's evaluation rests on: a monotone
// accuracy-compute frontier, strongly correlated per-image correctness
// across models (Fig. 2's unchanged/improves/varies categories), and a
// confidence signal usable for ensemble routing.
package vision

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/toltiers/toltiers/internal/xrand"
)

// Device identifies the hardware a model version is deployed on.
type Device int

const (
	// CPU deployment (general-purpose nodes).
	CPU Device = iota
	// GPU deployment (accelerated nodes).
	GPU
)

// String returns "cpu" or "gpu".
func (d Device) String() string {
	if d == GPU {
		return "gpu"
	}
	return "cpu"
}

// ModelSpec describes one CNN in the zoo.
type ModelSpec struct {
	Name string
	// GFLOPs is the forward-pass compute (metadata; latency below).
	GFLOPs float64
	// Params is the parameter count in millions.
	Params float64
	// SharedAtten is the attenuation applied to an image's shared
	// difficulty noise: smaller means a stronger model.
	SharedAtten float64
	// ResidualNoise is the scale of model-specific noise (creates the
	// "varies" category between near-tied models).
	ResidualNoise float64
	// Temperature calibrates the softmax confidence.
	Temperature float64
	// LatencyCPU and LatencyGPU are batch-1 inference latencies on the
	// two device profiles, before per-request jitter.
	LatencyCPU time.Duration
	LatencyGPU time.Duration
	// Top1Target is the model's calibrated top-1 error on the default
	// corpus; Pareto-frontier selection uses it together with Latency.
	Top1Target float64
}

// Latency returns the base latency on the given device.
func (m ModelSpec) Latency(d Device) time.Duration {
	if d == GPU {
		return m.LatencyGPU
	}
	return m.LatencyCPU
}

// Zoo returns the model zoo used by the experiments, ordered roughly by
// compute. Accuracy targets follow the published top-1 errors of the
// corresponding architectures (§II-B / Table II); SharedAtten values were
// calibrated against those targets with the e2 probe.
func Zoo() []ModelSpec {
	ms := time.Millisecond
	return []ModelSpec{
		{Name: "squeezenet", GFLOPs: 0.84, Params: 1.2, SharedAtten: 1.00, ResidualNoise: 0.30, Temperature: 3.0, LatencyCPU: 40 * ms, LatencyGPU: 3800 * time.Microsecond, Top1Target: 0.411},
		{Name: "alexnet", GFLOPs: 1.4, Params: 61, SharedAtten: 0.99, ResidualNoise: 0.30, Temperature: 3.0, LatencyCPU: 48 * ms, LatencyGPU: 3400 * time.Microsecond, Top1Target: 0.412},
		{Name: "googlenet", GFLOPs: 3.0, Params: 6.6, SharedAtten: 0.74, ResidualNoise: 0.26, Temperature: 3.0, LatencyCPU: 72 * ms, LatencyGPU: 6 * ms, Top1Target: 0.295},
		{Name: "resnet18", GFLOPs: 3.6, Params: 11.7, SharedAtten: 0.72, ResidualNoise: 0.25, Temperature: 3.0, LatencyCPU: 84 * ms, LatencyGPU: 6600 * time.Microsecond, Top1Target: 0.284},
		{Name: "vgg16", GFLOPs: 31, Params: 138, SharedAtten: 0.71, ResidualNoise: 0.25, Temperature: 3.0, LatencyCPU: 230 * ms, LatencyGPU: 13 * ms, Top1Target: 0.275},
		{Name: "resnet50", GFLOPs: 7.7, Params: 25.6, SharedAtten: 0.67, ResidualNoise: 0.23, Temperature: 3.0, LatencyCPU: 118 * ms, LatencyGPU: 9 * ms, Top1Target: 0.249},
		{Name: "resnet152", GFLOPs: 22.6, Params: 60.2, SharedAtten: 0.63, ResidualNoise: 0.22, Temperature: 3.0, LatencyCPU: 165 * ms, LatencyGPU: 14500 * time.Microsecond, Top1Target: 0.228},
		{Name: "sota", GFLOPs: 41, Params: 115, SharedAtten: 0.52, ResidualNoise: 0.20, Temperature: 3.0, LatencyCPU: 200 * ms, LatencyGPU: 20 * ms, Top1Target: 0.158},
	}
}

// ParetoZoo returns the subset of the zoo on the accuracy-latency
// Pareto frontier for device dev, ordered fastest first — the service
// versions of §III-A ("versions that encompass the pareto-optimal
// accuracy-latency trade-off space"). A model is on the frontier when no
// other model is both faster (or equal) and at least as accurate.
func ParetoZoo(dev Device) []ModelSpec {
	zoo := Zoo()
	sort.Slice(zoo, func(i, j int) bool {
		if zoo[i].Latency(dev) != zoo[j].Latency(dev) {
			return zoo[i].Latency(dev) < zoo[j].Latency(dev)
		}
		return zoo[i].Top1Target < zoo[j].Top1Target
	})
	var out []ModelSpec
	bestErr := math.Inf(1)
	for _, m := range zoo {
		if m.Top1Target < bestErr {
			out = append(out, m)
			bestErr = m.Top1Target
		}
	}
	return out
}

// ZooModel returns the spec with the given name, or false.
func ZooModel(name string) (ModelSpec, bool) {
	for _, m := range Zoo() {
		if m.Name == name {
			return m, true
		}
	}
	return ModelSpec{}, false
}

// World is the synthetic ILSVRC-like universe: class prototypes in a
// shared feature space plus deterministic per-image noise streams.
type World struct {
	classes int
	dim     int
	protos  [][]float64
	seed    uint64
	// difficulty mixture: fractions and scales of easy/moderate/hard.
	mix []difficultyBand
	// obsPool recycles observation vectors across Infer calls: corpus
	// profiling runs requests x versions inferences, and one fresh
	// dim-length slice per call used to dominate profile.Build's
	// allocation count.
	obsPool sync.Pool
}

type difficultyBand struct {
	frac     float64
	lo, hi   float64 // uniform difficulty range within the band
	cumuFrac float64
}

// WorldConfig parameterizes the universe.
type WorldConfig struct {
	Classes int
	Dim     int
	Seed    uint64
}

// DefaultWorldConfig returns the experiments' configuration: 100 classes
// in 32 dimensions (the paper's 1,000 ILSVRC classes scaled down with
// the same confusability structure; -scale flags can raise it).
func DefaultWorldConfig() WorldConfig { return WorldConfig{Classes: 100, Dim: 32, Seed: 0x1a6e} }

// NewWorld builds prototypes and the difficulty mixture.
func NewWorld(cfg WorldConfig) *World {
	if cfg.Classes < 2 {
		panic("vision: need at least 2 classes")
	}
	if cfg.Dim < 2 {
		panic("vision: need at least 2 dimensions")
	}
	rng := xrand.New(cfg.Seed)
	w := &World{classes: cfg.Classes, dim: cfg.Dim, seed: cfg.Seed}
	w.protos = make([][]float64, cfg.Classes)
	for c := range w.protos {
		r := rng.Split(uint64(c) + 101)
		p := make([]float64, cfg.Dim)
		for d := range p {
			p[d] = r.Norm()
		}
		w.protos[c] = p
	}
	// Difficulty mixture calibrated with the e2 probe: a clean majority
	// every model classifies, a band where depth pays, and a hard tail.
	w.mix = []difficultyBand{
		{frac: 0.50, lo: 0.1, hi: 1.8},
		{frac: 0.34, lo: 1.8, hi: 3.4},
		{frac: 0.16, lo: 3.4, hi: 5.6},
	}
	cum := 0.0
	for i := range w.mix {
		cum += w.mix[i].frac
		w.mix[i].cumuFrac = cum
	}
	return w
}

// Image is one classification request.
type Image struct {
	ID    int
	Label int
	// Difficulty is the realized noise scale of this image.
	Difficulty float64
	// shared is the image's shared noise direction (unit-ish normal).
	shared []float64
}

// NewImage synthesizes image id deterministically.
func (w *World) NewImage(id int) *Image {
	rng := xrand.New(uint64(id)*0xd1b54a32d192ed03 + w.seed*0x9e3779b97f4a7c15 + 7)
	label := rng.Intn(w.classes)
	u := rng.Float64()
	var band difficultyBand
	for _, b := range w.mix {
		band = b
		if u <= b.cumuFrac {
			break
		}
	}
	diff := band.lo + rng.Float64()*(band.hi-band.lo)
	shared := make([]float64, w.dim)
	for d := range shared {
		shared[d] = rng.Norm()
	}
	return &Image{ID: id, Label: label, Difficulty: diff, shared: shared}
}

// Corpus synthesizes n images with IDs [first, first+n).
func (w *World) Corpus(first, n int) []*Image {
	out := make([]*Image, n)
	for i := range out {
		out[i] = w.NewImage(first + i)
	}
	return out
}

// Prediction is the outcome of one inference.
type Prediction struct {
	Class int
	// Confidence is the max softmax probability.
	Confidence float64
	// Margin is the distance-score gap between the top two classes.
	Margin float64
	// WorkUnits is the deterministic compute performed (distance
	// evaluations, Classes x Dim).
	WorkUnits int64
}

// latencyJitterFrac is the deterministic per-request latency spread
// (system noise: interference, cache state).
const latencyJitterFrac = 0.08

// typicalityFloor and typicalityScale calibrate the confidence's
// input-difficulty term: per-dimension squared distance to the nearest
// prototype below the floor is considered in-distribution; beyond it,
// confidence decays exponentially at the scale.
const (
	typicalityFloor = 1.2
	typicalityScale = 0.8
)

// observe materializes the image as seen through model m: its class
// prototype plus attenuated shared noise plus model-specific residual
// noise. Deterministic in (world seed, image ID, model name). The
// second return is the pool token to hand back via putObs once the
// observation has been consumed.
func (w *World) observe(m ModelSpec, img *Image) ([]float64, *[]float64) {
	// Model-specific residual stream keyed by image and model identity.
	h := uint64(1469598103934665603)
	for _, b := range []byte(m.Name) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	var rng xrand.RNG
	rng.Reseed(h ^ (uint64(img.ID)*0x9e3779b97f4a7c15 + 0xbeef))

	proto := w.protos[img.Label]
	tok := w.getObs()
	obs := (*tok)[:w.dim]
	for d := range obs {
		obs[d] = proto[d] + img.Difficulty*(m.SharedAtten*img.shared[d]+m.ResidualNoise*rng.Norm())
	}
	return obs, tok
}

// getObs hands out a pooled dim+classes-length scratch vector: the first
// dim floats are the observation, the last classes Infer's per-class
// squared distances. Callers that are done classifying return the same
// token with putObs. Every element is overwritten before use, so
// recycling cannot leak state between inferences. The token is the
// pooled object itself, so a steady-state get/put cycle allocates
// nothing.
func (w *World) getObs() *[]float64 {
	if v := w.obsPool.Get(); v != nil {
		return v.(*[]float64)
	}
	s := make([]float64, w.dim+w.classes)
	return &s
}

func (w *World) putObs(tok *[]float64) {
	w.obsPool.Put(tok)
}

// Infer runs model m on img: it builds the model's observation and
// classifies by nearest prototype.
func (w *World) Infer(m ModelSpec, img *Image) Prediction {
	obs, tok := w.observe(m, img)
	defer w.putObs(tok)
	dist := (*tok)[w.dim:]

	best, second := -1, -1
	bestD, secondD := math.Inf(1), math.Inf(1)
	for c := 0; c < w.classes; c++ {
		p := w.protos[c]
		sum := 0.0
		for d := range obs {
			diff := obs[d] - p[d]
			sum += diff * diff
		}
		dist[c] = sum
		switch {
		case sum < bestD:
			second, secondD = best, bestD
			best, bestD = c, sum
		case sum < secondD:
			second, secondD = c, sum
		}
	}
	_ = second
	margin := (secondD - bestD) / float64(w.dim)

	// Confidence fuses two signals a production classifier exposes:
	// the softmax probability of the winning class (margin-driven) and
	// the observation's typicality — its distance to the nearest
	// prototype, which grows with input difficulty and catches
	// confidently-wrong predictions far from the training manifold.
	lse := 0.0
	for _, sum := range dist {
		lse += math.Exp(-(sum - bestD) / (2 * m.Temperature))
	}
	softmax := 1 / lse
	atypicality := bestD/float64(w.dim) - typicalityFloor
	if atypicality < 0 {
		atypicality = 0
	}
	conf := softmax * math.Exp(-atypicality/typicalityScale)

	return Prediction{
		Class:      best,
		Confidence: conf,
		Margin:     margin,
		WorkUnits:  int64(2 * w.classes * w.dim),
	}
}

// RequestLatency returns the simulated response time of model m on
// device dev for image id: the base model latency with deterministic
// per-request jitter.
func RequestLatency(m ModelSpec, dev Device, imageID int) time.Duration {
	base := m.Latency(dev)
	var r xrand.RNG
	r.Reseed(uint64(imageID)*0x2545f4914f6cdd1d + 0x11)
	jitter := 1 + latencyJitterFrac*(2*r.Float64()-1)
	return time.Duration(float64(base) * jitter)
}

// Validate checks a spec for usability.
func (m ModelSpec) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("vision: model without name")
	}
	if m.SharedAtten <= 0 || m.ResidualNoise < 0 {
		return fmt.Errorf("vision: model %s has invalid noise parameters", m.Name)
	}
	if m.LatencyCPU <= 0 || m.LatencyGPU <= 0 {
		return fmt.Errorf("vision: model %s has non-positive latency", m.Name)
	}
	if m.Temperature <= 0 {
		return fmt.Errorf("vision: model %s has non-positive temperature", m.Name)
	}
	return nil
}
