package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {-1, 1}, {2, 5},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestP99NeedsTenBeyond(t *testing.T) {
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i)
	}
	got, err := p99(phaseResult{rate: 100, latency: lat})
	if err != nil || math.Abs(got-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989.01", got, err)
	}
	if _, err := p99(phaseResult{rate: 100, latency: lat[:999]}); err == nil {
		t.Error("p99 of 999 samples accepted with 9 beyond it")
	}
}
