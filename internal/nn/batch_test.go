package nn

import (
	"math"
	"math/rand"
	"testing"
)

// Batched forward must agree with the scalar path per row (the two
// paths differ only in floating-point summation order).
func TestForwardBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net := MustMLP([]int{7, 12, 9, 3}, ReLU, Tanh, rng)
	ref := net.Clone()
	const rows = 5
	x := make([]float64, rows*7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	out := net.ForwardBatch(x, rows)
	if len(out) != rows*3 {
		t.Fatalf("batch output len %d, want %d", len(out), rows*3)
	}
	for r := 0; r < rows; r++ {
		want := ref.Forward(x[r*7 : (r+1)*7])
		got := out[r*3 : (r+1)*3]
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Errorf("row %d out[%d] = %v, scalar %v", r, i, got[i], want[i])
			}
		}
	}
}

// Batched backward must accumulate the same parameter gradients and
// input gradients as summing per-row scalar backward passes.
func TestBackwardBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, acts := range []struct {
		hidden, out Activation
	}{
		{ReLU, Linear}, {Tanh, Tanh}, {Sigmoid, Sigmoid},
	} {
		net := MustMLP([]int{6, 10, 4}, acts.hidden, acts.out, rng)
		ref := net.Clone()
		const rows = 8
		x := make([]float64, rows*6)
		dOut := make([]float64, rows*4)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range dOut {
			dOut[i] = rng.NormFloat64()
		}

		net.ZeroGrad()
		net.ForwardBatch(x, rows)
		dXb := net.BackwardBatch(dOut, rows)

		ref.ZeroGrad()
		dXs := make([]float64, rows*6)
		for r := 0; r < rows; r++ {
			ref.Forward(x[r*6 : (r+1)*6])
			copy(dXs[r*6:(r+1)*6], ref.Backward(dOut[r*4:(r+1)*4]))
		}

		gb, gs := net.GradSlices(), ref.GradSlices()
		for li := range gb {
			for j := range gb[li] {
				if math.Abs(gb[li][j]-gs[li][j]) > 1e-9 {
					t.Fatalf("%v/%v grad slice %d idx %d: batch %v scalar %v",
						acts.hidden, acts.out, li, j, gb[li][j], gs[li][j])
				}
			}
		}
		for i := range dXb {
			if math.Abs(dXb[i]-dXs[i]) > 1e-9 {
				t.Fatalf("%v/%v dX[%d]: batch %v scalar %v",
					acts.hidden, acts.out, i, dXb[i], dXs[i])
			}
		}
	}
}

// TestBackwardBatchParamsInputParity pins the two partial backward
// passes against the full BackwardBatch, bit for bit:
// BackwardBatchParams must accumulate the same parameter gradients,
// and BackwardBatchInput must return the same input gradients while
// leaving the parameter gradients untouched.
func TestBackwardBatchParamsInputParity(t *testing.T) {
	const rows = 9
	sizes := []int{7, 16, 16, 3}
	build := func() *Network {
		return MustMLP(sizes, ReLU, Linear, rand.New(rand.NewSource(42)))
	}
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, rows*sizes[0])
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dY := make([]float64, rows*sizes[len(sizes)-1])
	for i := range dY {
		dY[i] = rng.NormFloat64()
	}

	full := build()
	full.ForwardBatch(x, rows)
	full.ZeroGrad()
	wantDX := full.BackwardBatch(dY, rows)

	params := build()
	params.ForwardBatch(x, rows)
	params.ZeroGrad()
	params.BackwardBatchParams(dY, rows)

	input := build()
	input.ForwardBatch(x, rows)
	input.ZeroGrad()
	dX := input.BackwardBatchInput(dY, rows)

	for i := range wantDX {
		if dX[i] != wantDX[i] {
			t.Fatalf("dX[%d]: BackwardBatchInput %v, BackwardBatch %v", i, dX[i], wantDX[i])
		}
	}
	want, got, none := full.GradSlices(), params.GradSlices(), input.GradSlices()
	for li := range want {
		for j := range want[li] {
			if got[li][j] != want[li][j] {
				t.Fatalf("grad %d[%d]: BackwardBatchParams %v, BackwardBatch %v", li, j, got[li][j], want[li][j])
			}
			if none[li][j] != 0 {
				t.Fatalf("grad %d[%d]: BackwardBatchInput accumulated %v", li, j, none[li][j])
			}
		}
	}
}

// The batch path must handle a shrinking then growing batch without
// reading stale cache rows.
func TestBatchSizeChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	net := MustMLP([]int{3, 5, 2}, ReLU, Linear, rng)
	ref := net.Clone()
	for _, rows := range []int{4, 1, 6, 2} {
		x := make([]float64, rows*3)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		out := net.ForwardBatch(x, rows)
		for r := 0; r < rows; r++ {
			want := ref.Forward(x[r*3 : (r+1)*3])
			for i := range want {
				if math.Abs(out[r*2+i]-want[i]) > 1e-12 {
					t.Fatalf("rows=%d row %d differs", rows, r)
				}
			}
		}
	}
}

// Steady-state batched forward+backward must not allocate.
func TestBatchZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	net := MustMLP([]int{27, 48, 48, 1}, ReLU, Linear, rng)
	const rows = 32
	x := make([]float64, rows*27)
	dOut := make([]float64, rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range dOut {
		dOut[i] = rng.NormFloat64()
	}
	// Warm the scratch buffers.
	net.ForwardBatch(x, rows)
	net.BackwardBatch(dOut, rows)
	allocs := testing.AllocsPerRun(20, func() {
		net.ForwardBatch(x, rows)
		net.BackwardBatch(dOut, rows)
	})
	if allocs != 0 {
		t.Errorf("steady-state batch pass allocates %v/op, want 0", allocs)
	}
}

// Scalar Backward no longer allocates its dX result.
func TestScalarBackwardZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	net := MustMLP([]int{8, 16, 4}, Tanh, Linear, rng)
	x := make([]float64, 8)
	dOut := make([]float64, 4)
	net.Forward(x)
	net.Backward(dOut)
	allocs := testing.AllocsPerRun(20, func() {
		net.Forward(x)
		net.Backward(dOut)
	})
	if allocs != 0 {
		t.Errorf("scalar forward+backward allocates %v/op, want 0", allocs)
	}
}

func TestDotKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for n := 0; n <= 17; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		var want float64
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			want += a[i] * b[i]
		}
		if got := dot(a, b, 1); math.Abs(got-want) > 1e-9 {
			t.Errorf("dot len %d = %v, want %v", n, got, want)
		}
	}
}

// benchNet matches the GreenNFV critic shape (27 -> 48 -> 48 -> 1).
func benchNet(b *testing.B) (*Network, []float64, []float64, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	net := MustMLP([]int{27, 48, 48, 1}, ReLU, Linear, rng)
	const rows = 32
	x := make([]float64, rows*27)
	dOut := make([]float64, rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range dOut {
		dOut[i] = rng.NormFloat64()
	}
	return net, x, dOut, rows
}

func BenchmarkDenseForwardBatch(b *testing.B) {
	net, x, _, rows := benchNet(b)
	net.ForwardBatch(x, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(x, rows)
	}
}

func BenchmarkDenseBackwardBatch(b *testing.B) {
	net, x, dOut, rows := benchNet(b)
	net.ForwardBatch(x, rows)
	net.BackwardBatch(dOut, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.BackwardBatch(dOut, rows)
	}
}

// BenchmarkDenseForwardScalarLoop is the old per-sample path over the
// same 32-row minibatch, for comparison with BenchmarkDenseForwardBatch.
func BenchmarkDenseForwardScalarLoop(b *testing.B) {
	net, x, _, rows := benchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rows; r++ {
			net.Forward(x[r*27 : (r+1)*27])
		}
	}
}

// The Adam, SoftUpdate and ScaleGrad SIMD kernels must be
// bit-identical to the pure-Go loops (they mirror them operation for
// operation). Only meaningful where the kernels are selected.
func TestOptimizerKernelsBitExact(t *testing.T) {
	if !useSIMD {
		t.Skip("SIMD kernels not selected on this CPU")
	}
	build := func() (*Network, *Adam) {
		rng := rand.New(rand.NewSource(71))
		net := MustMLP([]int{9, 31, 5}, ReLU, Tanh, rng) // odd sizes exercise tails
		opt := MustAdam(0.01)
		opt.ClipNorm = 0.5
		return net, opt
	}
	run := func(simd bool) ([][]float64, [][]float64) {
		defer func(v bool) { useSIMD = v }(useSIMD)
		useSIMD = simd
		net, opt := build()
		target := net.Clone()
		x := make([]float64, 9)
		dOut := make([]float64, 5)
		rng := rand.New(rand.NewSource(73))
		for step := 0; step < 25; step++ {
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			for i := range dOut {
				dOut[i] = rng.NormFloat64()
			}
			net.ZeroGrad()
			net.Forward(x)
			net.Backward(dOut)
			net.ScaleGrad(0.125)
			opt.Step(net)
			if err := target.SoftUpdate(net, 0.01); err != nil {
				t.Fatal(err)
			}
		}
		return net.ParamSlices(), target.ParamSlices()
	}
	gotP, gotT := run(true)
	wantP, wantT := run(false)
	for i := range wantP {
		for j := range wantP[i] {
			if gotP[i][j] != wantP[i][j] {
				t.Fatalf("param slice %d idx %d: simd %v scalar %v", i, j, gotP[i][j], wantP[i][j])
			}
			if gotT[i][j] != wantT[i][j] {
				t.Fatalf("target slice %d idx %d: simd %v scalar %v", i, j, gotT[i][j], wantT[i][j])
			}
		}
	}
}
