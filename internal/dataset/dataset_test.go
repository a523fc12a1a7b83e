package dataset

import (
	"testing"

	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/vision"
)

func TestSpeechCorpusDefaults(t *testing.T) {
	c := NewSpeechCorpus(SpeechCorpusConfig{N: 50})
	if len(c.Requests) != 50 {
		t.Fatalf("requests = %d", len(c.Requests))
	}
	if len(c.Service.Versions) != 7 {
		t.Fatalf("versions = %d", len(c.Service.Versions))
	}
	for _, r := range c.Requests {
		if r.Utterance == nil || r.Image != nil {
			t.Fatal("speech request payload wrong")
		}
	}
}

func TestSpeechCorpusSeedDisjoint(t *testing.T) {
	a := NewSpeechCorpus(SpeechCorpusConfig{N: 10, Seed: 1})
	b := NewSpeechCorpus(SpeechCorpusConfig{N: 10, Seed: 2})
	ids := map[int]bool{}
	for _, r := range a.Requests {
		ids[r.ID] = true
	}
	for _, r := range b.Requests {
		if ids[r.ID] {
			t.Fatalf("seed collision on request ID %d", r.ID)
		}
	}
}

func TestVisionCorpusDefaults(t *testing.T) {
	c := NewVisionCorpus(VisionCorpusConfig{N: 40, Device: vision.GPU})
	if len(c.Requests) != 40 {
		t.Fatalf("requests = %d", len(c.Requests))
	}
	if len(c.Service.Versions) < 6 || len(c.Service.Versions) > 8 {
		t.Fatalf("versions = %d, want the device's Pareto frontier", len(c.Service.Versions))
	}
	for _, r := range c.Requests {
		if r.Image == nil || r.Utterance != nil {
			t.Fatal("vision request payload wrong")
		}
	}
}

func TestSplitPartitions(t *testing.T) {
	train, test := Split(100, 0.8, 7)
	if len(train) != 80 || len(test) != 20 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatalf("index %d appears twice", i)
		}
		seen[i] = true
	}
	if len(seen) != 100 {
		t.Fatalf("split covers %d of 100", len(seen))
	}
	// Determinism.
	train2, _ := Split(100, 0.8, 7)
	for i := range train {
		if train[i] != train2[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestSplitPanicsOnBadFrac(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad frac")
		}
	}()
	Split(10, 1.5, 1)
}

func TestKFoldCoversEachIndexExactlyOnce(t *testing.T) {
	folds := KFold(103, 10, 3)
	if len(folds) != 10 {
		t.Fatalf("folds = %d", len(folds))
	}
	testCount := map[int]int{}
	for _, f := range folds {
		if len(f.Train)+len(f.Test) != 103 {
			t.Fatalf("fold sizes %d+%d != 103", len(f.Train), len(f.Test))
		}
		inTest := map[int]bool{}
		for _, i := range f.Test {
			testCount[i]++
			inTest[i] = true
		}
		for _, i := range f.Train {
			if inTest[i] {
				t.Fatalf("index %d in both train and test", i)
			}
		}
	}
	for i := 0; i < 103; i++ {
		if testCount[i] != 1 {
			t.Fatalf("index %d in %d test folds", i, testCount[i])
		}
	}
}

func TestKFoldPanics(t *testing.T) {
	for _, c := range []struct{ n, k int }{{10, 1}, {3, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("KFold(%d,%d) did not panic", c.n, c.k)
				}
			}()
			KFold(c.n, c.k, 1)
		}()
	}
}

func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name   string
		domain service.Domain
		device vision.Device
	}{
		{"asr", service.SpeechDomain, 0},
		{"vision", service.VisionDomain, vision.GPU},
		{"vision-cpu", service.VisionDomain, vision.CPU},
	} {
		svc, reqs, err := ByName(tc.name, 20)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if svc.Domain != tc.domain || len(reqs) != 20 {
			t.Errorf("%s: domain %s, %d requests", tc.name, svc.Domain, len(reqs))
		}
		if v, ok := svc.Versions[0].(*service.VisionVersion); ok && v.Device() != tc.device {
			t.Errorf("%s: device %v, want %v", tc.name, v.Device(), tc.device)
		}
	}
	if _, _, err := ByName("gpu", 20); err == nil {
		t.Error("an unknown service name must be refused")
	}
}
