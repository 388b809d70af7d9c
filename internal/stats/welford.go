package stats

import "math"

// Welford accumulates mean and variance in a single pass using
// Welford's numerically stable online algorithm.
// The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N reports the number of observations seen.
func (w *Welford) N() int64 { return w.n }

// Mean reports the running mean, or 0 before any observation.
func (w *Welford) Mean() float64 { return w.mean }

// Min reports the smallest observation, or 0 before any observation.
func (w *Welford) Min() float64 { return w.min }

// Max reports the largest observation, or 0 before any observation.
func (w *Welford) Max() float64 { return w.max }

// Variance reports the unbiased sample variance (n-1 denominator).
// It returns 0 for fewer than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// PopVariance reports the population variance (n denominator).
func (w *Welford) PopVariance() float64 {
	if w.n < 1 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev reports the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Reset discards all state.
func (w *Welford) Reset() { *w = Welford{} }

// Merge folds another accumulator into w using the parallel-variance
// combination rule, leaving other untouched.
func (w *Welford) Merge(other Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = other
		return
	}
	nA, nB := float64(w.n), float64(other.n)
	delta := other.mean - w.mean
	total := nA + nB
	w.mean += delta * nB / total
	w.m2 += other.m2 + delta*delta*nA*nB/total
	w.n += other.n
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
}

// IndexOfDispersion measures burstiness of a series of per-interval
// event counts: variance/mean. A Poisson process has IoD ≈ 1; bursty
// (MMPP-like) traffic has IoD > 1; CBR traffic has IoD ≈ 0.
func IndexOfDispersion(counts []float64) float64 {
	var w Welford
	for _, c := range counts {
		w.Add(c)
	}
	m := w.Mean()
	if m == 0 {
		return 0
	}
	return w.PopVariance() / m
}
