package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= eps {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= eps*scale
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.Stddev() != 0 {
		t.Fatalf("zero-value Welford should report zeros, got n=%d mean=%v var=%v", w.N(), w.Mean(), w.Variance())
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Mean() != 42 {
		t.Errorf("mean = %v, want 42", w.Mean())
	}
	if w.Variance() != 0 {
		t.Errorf("variance of single sample = %v, want 0", w.Variance())
	}
	if w.Min() != 42 || w.Max() != 42 {
		t.Errorf("min/max = %v/%v, want 42/42", w.Min(), w.Max())
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	if !almostEqual(w.PopVariance(), 4, 1e-12) {
		t.Errorf("population variance = %v, want 4", w.PopVariance())
	}
	if !almostEqual(w.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("sample variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

// Property: Welford matches the two-pass textbook computation.
func TestWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(xs)-1)
		return almostEqual(w.Mean(), mean, 1e-9) && almostEqual(w.Variance(), wantVar, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: merging two accumulators equals accumulating the
// concatenation.
func TestWelfordMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n1, n2 := rng.Intn(40), rng.Intn(40)
		var a, b, all Welford
		for i := 0; i < n1; i++ {
			x := rng.NormFloat64() * 10
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < n2; i++ {
			x := rng.NormFloat64()*3 + 5
			b.Add(x)
			all.Add(x)
		}
		a.Merge(b)
		if a.N() != all.N() {
			t.Fatalf("merged n = %d, want %d", a.N(), all.N())
		}
		if all.N() > 0 && !almostEqual(a.Mean(), all.Mean(), 1e-9) {
			t.Fatalf("merged mean = %v, want %v", a.Mean(), all.Mean())
		}
		if all.N() > 1 && !almostEqual(a.Variance(), all.Variance(), 1e-9) {
			t.Fatalf("merged variance = %v, want %v", a.Variance(), all.Variance())
		}
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(2)
	w.Reset()
	if w.N() != 0 || w.Mean() != 0 {
		t.Errorf("after reset n=%d mean=%v, want zeros", w.N(), w.Mean())
	}
}

func TestWelfordMergeIntoEmpty(t *testing.T) {
	var a, b Welford
	b.Add(3)
	b.Add(5)
	a.Merge(b)
	if a.N() != 2 || !almostEqual(a.Mean(), 4, 1e-12) {
		t.Errorf("merge into empty: n=%d mean=%v", a.N(), a.Mean())
	}
	var c Welford
	a.Merge(c) // merging an empty accumulator is a no-op
	if a.N() != 2 {
		t.Errorf("merge of empty changed n to %d", a.N())
	}
}

func TestIndexOfDispersion(t *testing.T) {
	// CBR: identical counts, IoD = 0.
	cbr := []float64{10, 10, 10, 10, 10}
	if iod := IndexOfDispersion(cbr); iod != 0 {
		t.Errorf("CBR IoD = %v, want 0", iod)
	}
	// Poisson(λ=50): IoD ≈ 1.
	rng := rand.New(rand.NewSource(11))
	poisson := make([]float64, 5000)
	for i := range poisson {
		// Knuth's algorithm for small λ.
		l := math.Exp(-50)
		k, p := 0, 1.0
		for p > l {
			k++
			p *= rng.Float64()
		}
		poisson[i] = float64(k - 1)
	}
	if iod := IndexOfDispersion(poisson); iod < 0.8 || iod > 1.2 {
		t.Errorf("Poisson IoD = %v, want ~1", iod)
	}
	// Bursty: alternating silence and bursts, IoD >> 1.
	bursty := make([]float64, 100)
	for i := range bursty {
		if i%10 == 0 {
			bursty[i] = 500
		}
	}
	if iod := IndexOfDispersion(bursty); iod <= 10 {
		t.Errorf("bursty IoD = %v, want >> 1", iod)
	}
	if IndexOfDispersion(nil) != 0 {
		t.Error("empty IoD should be 0")
	}
}
