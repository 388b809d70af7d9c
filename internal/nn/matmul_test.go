package nn

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestMatmulKernelBitExact pins the AVX2 matmul kernel to the math.FMA
// reference bit for bit over every k%4 tail (k = 0..13), every n%8
// column tail (n = 1..17, so 8-wide panels, the 4-wide block and single
// columns all run), rows 1..9, and row strides wider than the widths.
// It also checks that the kernel writes nothing outside the output
// rows' first n columns.
func TestMatmulKernelBitExact(t *testing.T) {
	if !useSIMD {
		t.Skip("SIMD kernels not selected on this CPU")
	}
	rng := rand.New(rand.NewSource(83))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	const sentinel = 12345.5
	for k := 0; k <= 13; k++ {
		for n := 1; n <= 17; n++ {
			for rows := 1; rows <= 9; rows++ {
				for _, pad := range []int{0, 3} {
					ldx, ldm, ldo := k+pad, n+pad, n+2*pad
					x := fill(rows*ldx + 1)
					m := fill(k*ldm + 1)
					got := make([]float64, rows*ldo)
					want := make([]float64, rows*ldo)
					for i := range got {
						got[i], want[i] = sentinel, sentinel
					}
					matmul(got, ldo, x, ldx, m, ldm, rows, k, n)
					for r := 0; r < rows; r++ {
						clear(want[r*ldo : r*ldo+n])
					}
					if k > 0 {
						matmulGo(want, ldo, x, ldx, m, ldm, rows, k, n)
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("k=%d n=%d rows=%d pad=%d: out[%d] = %v, reference %v",
								k, n, rows, pad, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestMatmulGoOrder checks the reference itself against a plain
// sequential sum (to rounding), so both kernels are pinned to the
// product they claim to compute and not only to each other.
func TestMatmulGoOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	const rows, k, n = 5, 11, 7
	x := make([]float64, rows*k)
	m := make([]float64, k*n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	out := make([]float64, rows*n)
	matmulGo(out, n, x, k, m, n, rows, k, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < n; c++ {
			var want float64
			for j := 0; j < k; j++ {
				want += x[r*k+j] * m[j*n+c]
			}
			if math.Abs(out[r*n+c]-want) > 1e-12 {
				t.Fatalf("out[%d,%d] = %v, want %v", r, c, out[r*n+c], want)
			}
		}
	}
}

// batchShapes are the learner's networks at the node problem size
// (12-dim state, 15-dim action) and the FigCluster cell's (128 and
// 128): actor and critic, 48×48 hidden.
var batchShapes = []struct {
	name  string
	sizes []int
	out   Activation
}{
	{"node-actor", []int{12, 48, 48, 15}, Tanh},
	{"node-critic", []int{27, 48, 48, 1}, Linear},
	{"cluster-actor", []int{128, 48, 48, 128}, Tanh},
	{"cluster-critic", []int{256, 48, 48, 1}, Linear},
}

// batchPasses runs ForwardBatch and each backward variant on a fresh
// copy of the shape's network over a 35-row minibatch (32 rows through
// matmul, 3 through dot) and returns the outputs of each pass.
func batchPasses(sizes []int, outAct Activation) map[string][]float64 {
	const rows = 35
	build := func() *Network {
		return MustMLP(sizes, ReLU, outAct, rand.New(rand.NewSource(101)))
	}
	rng := rand.New(rand.NewSource(103))
	x := make([]float64, rows*sizes[0])
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dY := make([]float64, rows*sizes[len(sizes)-1])
	for i := range dY {
		dY[i] = rng.NormFloat64()
	}
	grads := func(n *Network) []float64 {
		var g []float64
		for _, s := range n.GradSlices() {
			g = append(g, s...)
		}
		return g
	}
	res := map[string][]float64{}

	full := build()
	res["forward"] = append([]float64(nil), full.ForwardBatch(x, rows)...)
	full.ZeroGrad()
	res["backward"] = append(append([]float64(nil), full.BackwardBatch(dY, rows)...), grads(full)...)

	params := build()
	params.ForwardBatch(x, rows)
	params.ZeroGrad()
	params.BackwardBatchParams(dY, rows)
	res["params"] = grads(params)

	input := build()
	input.ForwardBatch(x, rows)
	input.ZeroGrad()
	res["input"] = append([]float64(nil), input.BackwardBatchInput(dY, rows)...)
	return res
}

func bitsHash(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range v {
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestBatchPassesPinned pins every batched layer pass at the learner's
// real shapes to the bits the AVX2 kernels produced before the matmul
// kernel replaced the per-row dot products: the recorded figures
// depend on them.
func TestBatchPassesPinned(t *testing.T) {
	if !useSIMD {
		t.Skip("pinned values are the AVX2 kernels' rounding")
	}
	want := map[string]map[string]uint64{
		"node-actor": {
			"forward": 0x6155c718575c8cde, "backward": 0x6fa2573cd5d9ca72,
			"params": 0xb456f9479c0cc70a, "input": 0x503a8d5a4660b1fd,
		},
		"node-critic": {
			"forward": 0x802803eb74f93c6a, "backward": 0x7535ff7f9afb4875,
			"params": 0xad6c089dacc44fb0, "input": 0x3bc19b76616a6cb4,
		},
		"cluster-actor": {
			"forward": 0x7789827b881108f0, "backward": 0x97b8b1974e8446a6,
			"params": 0x9718b216880bbde3, "input": 0x58fcdc4ee797e82c,
		},
		"cluster-critic": {
			"forward": 0x425cfd5a3f32862d, "backward": 0x915efd5c9cfa81ce,
			"params": 0x7d1ebdfa1ef04b56, "input": 0x09bd856b595e374d,
		},
	}
	for _, sh := range batchShapes {
		for pass, v := range batchPasses(sh.sizes, sh.out) {
			if got := bitsHash(v); got != want[sh.name][pass] {
				t.Errorf("%s %s: hash %#x, pinned %#x", sh.name, pass, got, want[sh.name][pass])
			}
		}
	}
}

// TestBatchPassesKernelParity runs the forward and input-gradient
// passes at the learner's shapes with the AVX2 kernels and with the
// pure-Go fallback: both must give the same bits. (Parameter gradients
// go through axpy, whose Go loop rounds unfused, so they are pinned by
// TestBatchPassesPinned only.)
func TestBatchPassesKernelParity(t *testing.T) {
	if !useSIMD {
		t.Skip("SIMD kernels not selected on this CPU")
	}
	run := func(simd bool) []map[string][]float64 {
		defer func(v bool) { useSIMD = v }(useSIMD)
		useSIMD = simd
		var out []map[string][]float64
		for _, sh := range batchShapes {
			out = append(out, batchPasses(sh.sizes, sh.out))
		}
		return out
	}
	asm, ref := run(true), run(false)
	for i, sh := range batchShapes {
		for _, pass := range []string{"forward", "input"} {
			a, g := asm[i][pass], ref[i][pass]
			for j := range g {
				if math.Float64bits(a[j]) != math.Float64bits(g[j]) {
					t.Fatalf("%s %s[%d]: asm %v, pure Go %v", sh.name, pass, j, a[j], g[j])
				}
			}
		}
	}
}
