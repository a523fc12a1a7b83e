package vision

import (
	"math"
	"os"
	"testing"
	"time"

	"github.com/toltiers/toltiers/internal/metrics"
)

func testWorld(t testing.TB) *World {
	t.Helper()
	return NewWorld(DefaultWorldConfig())
}

func TestZooValid(t *testing.T) {
	zoo := Zoo()
	if len(zoo) != 8 {
		t.Fatalf("zoo size = %d, want 8", len(zoo))
	}
	for _, m := range zoo {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	if _, ok := ZooModel("resnet50"); !ok {
		t.Error("ZooModel(resnet50) missing")
	}
	if _, ok := ZooModel("nope"); ok {
		t.Error("ZooModel matched nonexistent model")
	}
}

func TestStrongerModelsAttenuateMore(t *testing.T) {
	// The flagship must attenuate shared noise more than the
	// lightweight models.
	s, _ := ZooModel("squeezenet")
	f, _ := ZooModel("sota")
	if f.SharedAtten >= s.SharedAtten {
		t.Fatalf("sota attenuation %v not stronger than squeezenet %v", f.SharedAtten, s.SharedAtten)
	}
}

func TestImageDeterministic(t *testing.T) {
	w := testWorld(t)
	a, b := w.NewImage(42), w.NewImage(42)
	if a.Label != b.Label || a.Difficulty != b.Difficulty {
		t.Fatal("image metadata not deterministic")
	}
	for d := range a.shared {
		if a.shared[d] != b.shared[d] {
			t.Fatal("shared noise not deterministic")
		}
	}
}

func TestInferDeterministic(t *testing.T) {
	w := testWorld(t)
	m, _ := ZooModel("resnet50")
	img := w.NewImage(7)
	p1, p2 := w.Infer(m, img), w.Infer(m, img)
	if p1.Class != p2.Class || p1.Confidence != p2.Confidence {
		t.Fatal("inference not deterministic")
	}
}

func TestEasyImagesClassifiedByAll(t *testing.T) {
	w := testWorld(t)
	corpus := w.Corpus(0, 400)
	for _, m := range Zoo() {
		wrongEasy := 0
		easy := 0
		for _, img := range corpus {
			if img.Difficulty > 0.8 {
				continue
			}
			easy++
			if w.Infer(m, img).Class != img.Label {
				wrongEasy++
			}
		}
		if easy == 0 {
			t.Fatal("no easy images in corpus")
		}
		if frac := float64(wrongEasy) / float64(easy); frac > 0.05 {
			t.Errorf("%s misclassifies %.1f%% of easy images", m.Name, 100*frac)
		}
	}
}

func TestAccuracyOrdering(t *testing.T) {
	w := testWorld(t)
	corpus := w.Corpus(0, 1500)
	errOf := func(name string) float64 {
		m, _ := ZooModel(name)
		wrong := 0
		for _, img := range corpus {
			if w.Infer(m, img).Class != img.Label {
				wrong++
			}
		}
		return float64(wrong) / float64(len(corpus))
	}
	sq := errOf("squeezenet")
	rn := errOf("resnet50")
	so := errOf("sota")
	if !(so < rn && rn < sq) {
		t.Fatalf("accuracy ordering violated: squeeze %.3f resnet50 %.3f sota %.3f", sq, rn, so)
	}
	// Headline shape: the flagship cuts the lightweight model's error
	// by a large factor (paper: >65% at 5x latency).
	if (sq-so)/sq < 0.45 {
		t.Fatalf("error reduction squeeze->sota only %.1f%%", 100*(sq-so)/sq)
	}
}

func TestConfidenceDiscriminates(t *testing.T) {
	w := testWorld(t)
	corpus := w.Corpus(0, 1200)
	m, _ := ZooModel("squeezenet")
	var right, wrong []float64
	for _, img := range corpus {
		p := w.Infer(m, img)
		if p.Class == img.Label {
			right = append(right, p.Confidence)
		} else {
			wrong = append(wrong, p.Confidence)
		}
	}
	if len(right) < 20 || len(wrong) < 20 {
		t.Skipf("degenerate split %d/%d", len(right), len(wrong))
	}
	mr, mw := meanOf(right), meanOf(wrong)
	if mr <= mw+0.05 {
		t.Fatalf("confidence not discriminative: right %.3f vs wrong %.3f", mr, mw)
	}
}

func TestConfidenceInRange(t *testing.T) {
	w := testWorld(t)
	m, _ := ZooModel("googlenet")
	for id := 0; id < 200; id++ {
		p := w.Infer(m, w.NewImage(id))
		if p.Confidence <= 0 || p.Confidence > 1 || math.IsNaN(p.Confidence) {
			t.Fatalf("confidence out of range: %v", p.Confidence)
		}
		if p.Margin < 0 {
			t.Fatalf("negative margin: %v", p.Margin)
		}
	}
}

func TestCorrectnessCorrelatedAcrossModels(t *testing.T) {
	// Per-image correctness must be strongly correlated between models:
	// this is what produces the paper's dominant "unchanged" category.
	w := testWorld(t)
	corpus := w.Corpus(0, 1000)
	a, _ := ZooModel("resnet50")
	b, _ := ZooModel("resnet152")
	agree := 0
	for _, img := range corpus {
		ra := w.Infer(a, img).Class == img.Label
		rb := w.Infer(b, img).Class == img.Label
		if ra == rb {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(corpus)); frac < 0.75 {
		t.Fatalf("cross-model correctness agreement only %.1f%%", 100*frac)
	}
}

func TestRequestLatencyJitterBounded(t *testing.T) {
	m, _ := ZooModel("vgg16")
	base := m.Latency(CPU)
	for id := 0; id < 500; id++ {
		l := RequestLatency(m, CPU, id)
		lo := time.Duration(float64(base) * (1 - latencyJitterFrac - 1e-9))
		hi := time.Duration(float64(base) * (1 + latencyJitterFrac + 1e-9))
		if l < lo || l > hi {
			t.Fatalf("latency %v outside [%v, %v]", l, lo, hi)
		}
	}
	if RequestLatency(m, CPU, 3) != RequestLatency(m, CPU, 3) {
		t.Fatal("latency jitter not deterministic")
	}
}

func TestGPUFasterThanCPU(t *testing.T) {
	for _, m := range Zoo() {
		if m.LatencyGPU >= m.LatencyCPU {
			t.Errorf("%s: GPU %v not faster than CPU %v", m.Name, m.LatencyGPU, m.LatencyCPU)
		}
	}
}

func TestDeviceString(t *testing.T) {
	if CPU.String() != "cpu" || GPU.String() != "gpu" {
		t.Fatal("device names wrong")
	}
}

func TestWorldPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []WorldConfig{{Classes: 1, Dim: 8}, {Classes: 10, Dim: 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			NewWorld(cfg)
		}()
	}
}

// TestZooCalibrationProbe prints per-model error rates when
// TOLTIERS_CALIBRATE=1; used to retune SharedAtten targets.
func TestZooCalibrationProbe(t *testing.T) {
	if os.Getenv("TOLTIERS_CALIBRATE") != "1" {
		t.Skip("set TOLTIERS_CALIBRATE=1 to run")
	}
	w := testWorld(t)
	corpus := w.Corpus(0, 4000)
	for _, m := range Zoo() {
		var errSum, confSum float64
		var latSum time.Duration
		for _, img := range corpus {
			p := w.Infer(m, img)
			errSum += metrics.Top1Error(p.Class, img.Label)
			latSum += RequestLatency(m, CPU, img.ID)
			confSum += p.Confidence
		}
		n := float64(len(corpus))
		t.Logf("%s: top1err=%.4f latCPU=%v conf=%.3f", m.Name, errSum/n, latSum/time.Duration(len(corpus)), confSum/n)
	}
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
