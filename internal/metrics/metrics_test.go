package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/toltiers/toltiers/internal/xrand"
)

func TestAlignWordsIdentical(t *testing.T) {
	we := AlignWords([]int{1, 2, 3}, []int{1, 2, 3})
	if we.Total() != 0 || we.WER() != 0 {
		t.Errorf("identical sequences: %+v", we)
	}
	if we.RefWords != 3 {
		t.Errorf("RefWords = %d", we.RefWords)
	}
}

func TestAlignWordsSubstitution(t *testing.T) {
	we := AlignWords([]int{1, 9, 3}, []int{1, 2, 3})
	if we.Substitutions != 1 || we.Insertions != 0 || we.Deletions != 0 {
		t.Errorf("want 1 substitution, got %+v", we)
	}
	if math.Abs(we.WER()-1.0/3.0) > 1e-12 {
		t.Errorf("WER = %v", we.WER())
	}
}

func TestAlignWordsInsertion(t *testing.T) {
	we := AlignWords([]int{1, 2, 3, 4}, []int{1, 2, 3})
	if we.Insertions != 1 || we.Total() != 1 {
		t.Errorf("want 1 insertion, got %+v", we)
	}
}

func TestAlignWordsDeletion(t *testing.T) {
	we := AlignWords([]int{1, 3}, []int{1, 2, 3})
	if we.Deletions != 1 || we.Total() != 1 {
		t.Errorf("want 1 deletion, got %+v", we)
	}
}

func TestAlignWordsEmptyCases(t *testing.T) {
	if we := AlignWords(nil, nil); we.WER() != 0 {
		t.Errorf("empty/empty WER = %v", we.WER())
	}
	if we := AlignWords([]int{1, 2}, nil); we.Insertions != 2 {
		t.Errorf("hyp-only alignment: %+v", we)
	}
	if we := AlignWords(nil, []int{1, 2}); we.Deletions != 2 || we.WER() != 1 {
		t.Errorf("ref-only alignment: %+v (WER %v)", we, we.WER())
	}
}

func TestAlignWordsCompletelyDifferent(t *testing.T) {
	we := AlignWords([]int{7, 8, 9}, []int{1, 2, 3})
	if we.Total() != 3 || we.Substitutions != 3 {
		t.Errorf("disjoint sequences: %+v", we)
	}
	if we.WER() != 1 {
		t.Errorf("WER = %v", we.WER())
	}
}

// The edit distance must equal the classic single-cost Levenshtein
// distance; check against an independent implementation on random pairs.
func TestAlignWordsMatchesLevenshtein(t *testing.T) {
	lev := func(a, b []int) int {
		prev := make([]int, len(b)+1)
		cur := make([]int, len(b)+1)
		for j := range prev {
			prev[j] = j
		}
		for i := 1; i <= len(a); i++ {
			cur[0] = i
			for j := 1; j <= len(b); j++ {
				c := 1
				if a[i-1] == b[j-1] {
					c = 0
				}
				m := prev[j-1] + c
				if v := prev[j] + 1; v < m {
					m = v
				}
				if v := cur[j-1] + 1; v < m {
					m = v
				}
				cur[j] = m
			}
			prev, cur = cur, prev
		}
		return prev[len(b)]
	}
	r := xrand.New(21)
	for trial := 0; trial < 200; trial++ {
		a := make([]int, r.Intn(12))
		b := make([]int, r.Intn(12))
		for i := range a {
			a[i] = r.Intn(5)
		}
		for i := range b {
			b[i] = r.Intn(5)
		}
		we := AlignWords(a, b)
		if we.Total() != lev(a, b) {
			t.Fatalf("alignment cost %d != levenshtein %d for %v vs %v", we.Total(), lev(a, b), a, b)
		}
	}
}

func TestWERPropertyBounds(t *testing.T) {
	r := xrand.New(33)
	f := func(_ uint8) bool {
		n := 1 + r.Intn(10)
		ref := make([]int, n)
		hyp := make([]int, 1+r.Intn(10))
		for i := range ref {
			ref[i] = r.Intn(4)
		}
		for i := range hyp {
			hyp[i] = r.Intn(4)
		}
		w := WER(hyp, ref)
		// WER is non-negative and bounded by max(len(hyp),len(ref))/len(ref).
		bound := float64(len(hyp)) / float64(n)
		if bound < 1 {
			bound = 1
		}
		return w >= 0 && w <= bound+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTop1Error(t *testing.T) {
	if Top1Error(3, 3) != 0 {
		t.Error("match should be 0")
	}
	if Top1Error(3, 4) != 1 {
		t.Error("mismatch should be 1")
	}
}
