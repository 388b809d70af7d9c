package nn

import "math"

// This file is the minibatch fast path: ForwardBatch/BackwardBatch
// process a whole row-major [rows × dim] matrix per call with
// preallocated, layer-owned scratch buffers (zero allocations once
// warm). The forward pass and the input-gradient half of the backward
// pass are one matrix product each (matmul) over the rows in whole
// groups of four; the last rows%4 rows use dot. The scalar
// Forward/Backward path is untouched so single-state inference and
// gob checkpoints behave exactly as before; the batched path is free
// to reassociate floating-point sums for speed.

// dot computes Σ a[i]·b[i·stride] (b long enough for len(a) strided
// reads) with four accumulators. The scalar loop `sum += a[i]*b[i]`
// serializes on the add's floating-point latency; four independent
// chains keep the pipeline busy. The stride lets the batched backward
// read a weight column in place.
func dot(a, b []float64, stride int) float64 {
	n := len(a)
	var s0, s1, s2, s3 float64
	i, j := 0, 0
	for ; i+4 <= n; i, j = i+4, j+4*stride {
		s0 += a[i] * b[j]
		s1 += a[i+1] * b[j+stride]
		s2 += a[i+2] * b[j+2*stride]
		s3 += a[i+3] * b[j+3*stride]
	}
	for ; i < n; i, j = i+1, j+stride {
		s0 += a[i] * b[j]
	}
	return (s0 + s1) + (s2 + s3)
}

// matmul computes out[r·ldo+c] = Σ_j x[r·ldx+j]·m[j·ldm+c] for
// r < rows, c < n, j < k: the [rows × k] matrix x times the [k × n]
// matrix m, each row-major with its own row stride (ld*). Every output
// sums in matmulGo's order whichever kernel runs, so the AVX2 kernel
// and the pure-Go loop agree bit for bit.
func matmul(out []float64, ldo int, x []float64, ldx int, m []float64, ldm int, rows, k, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	if k < 0 || ldx < k || ldm < n || ldo < n || len(out) < (rows-1)*ldo+n ||
		len(x) < (rows-1)*ldx+k || len(m) < (k-1)*ldm+n {
		panic("nn: matmul operand out of range")
	}
	switch {
	case k == 0:
		for r := 0; r < rows; r++ {
			clear(out[r*ldo : r*ldo+n])
		}
	case useSIMD:
		matmulasm(&out[0], ldo, &x[0], ldx, &m[0], ldm, rows, k, n)
	default:
		matmulGo(out, ldo, x, ldx, m, ldm, rows, k, n)
	}
}

// matmulGo is the pure-Go matmul and the reference for matmulasm. Each
// output runs four FMA chains, chain i over the j < k&^3 with
// j ≡ i (mod 4), reduces them as (l0+l2)+(l1+l3), then FMAs the k&3
// tail in order.
func matmulGo(out []float64, ldo int, x []float64, ldx int, m []float64, ldm int, rows, k, n int) {
	k4 := k &^ 3
	for r := 0; r < rows; r++ {
		xr := x[r*ldx : r*ldx+k]
		outr := out[r*ldo : r*ldo+n]
		for c := range outr {
			var l0, l1, l2, l3 float64
			j := 0
			for ; j < k4; j += 4 {
				l0 = math.FMA(xr[j], m[j*ldm+c], l0)
				l1 = math.FMA(xr[j+1], m[(j+1)*ldm+c], l1)
				l2 = math.FMA(xr[j+2], m[(j+2)*ldm+c], l2)
				l3 = math.FMA(xr[j+3], m[(j+3)*ldm+c], l3)
			}
			s := (l0 + l2) + (l1 + l3)
			for ; j < k; j++ {
				s = math.FMA(xr[j], m[j*ldm+c], s)
			}
			outr[c] = s
		}
	}
}

// transpose writes the row-major [rows × cols] matrix src into dst as
// its [cols × rows] transpose. It reads src eight columns (one cache
// line) at a time and writes eight dst rows, each contiguously.
func transpose(dst, src []float64, rows, cols int) {
	dst = dst[:rows*cols]
	c := 0
	for ; c+8 <= cols; c += 8 {
		d := dst[c*rows : (c+8)*rows]
		for r := 0; r < rows; r++ {
			s := src[r*cols+c : r*cols+c+8]
			d[r], d[rows+r], d[2*rows+r], d[3*rows+r] = s[0], s[1], s[2], s[3]
			d[4*rows+r], d[5*rows+r], d[6*rows+r], d[7*rows+r] = s[4], s[5], s[6], s[7]
		}
	}
	for ; c < cols; c++ {
		d := dst[c*rows : (c+1)*rows]
		for r := range d {
			d[r] = src[r*cols+c]
		}
	}
}

// axpy computes y += alpha*x. The iterations are independent, so the
// plain loop already pipelines well.
func axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// axpyFast dispatches y += alpha*x to the AVX2 kernel when available.
func axpyFast(alpha float64, x, y []float64) {
	if useSIMD {
		axpyasm(alpha, &x[0], &y[0], len(x))
		return
	}
	axpy(alpha, x, y)
}

// applyBatch evaluates the activation elementwise with the branch
// hoisted out of the loop.
func applyBatch(a Activation, z, y []float64) {
	y = y[:len(z)]
	switch a {
	case ReLU:
		// 0.5*(v+|v|) is exactly max(0, v) and branchless: ReLU
		// pre-activations are unpredictable, so a compare here costs
		// a mispredict every other element.
		for i, v := range z {
			y[i] = 0.5 * (v + math.Abs(v))
		}
	case Tanh:
		for i, v := range z {
			y[i] = math.Tanh(v)
		}
	case Sigmoid:
		for i, v := range z {
			y[i] = 1 / (1 + math.Exp(-v))
		}
	default:
		copy(y, z)
	}
}

// derivBatch computes dz = dY ⊙ act'(z, y) elementwise.
func derivBatch(a Activation, dY, z, y, dz []float64) {
	dz = dz[:len(dY)]
	switch a {
	case ReLU:
		// Branchless 1/0 step via Copysign. At exactly z == +0 this
		// passes the gradient where the scalar path drops it; the
		// subgradient at 0 is arbitrary and the case has measure zero.
		z = z[:len(dY)]
		for i, v := range z {
			dz[i] = dY[i] * (0.5 * (math.Copysign(1, v) + 1))
		}
	case Tanh:
		y = y[:len(dY)]
		for i, yv := range y {
			dz[i] = dY[i] * (1 - yv*yv)
		}
	case Sigmoid:
		y = y[:len(dY)]
		for i, yv := range y {
			dz[i] = dY[i] * yv * (1 - yv)
		}
	default:
		copy(dz, dY)
	}
}

// grow returns buf resized to n, reallocating only when capacity is
// insufficient — the steady state (fixed minibatch size) never
// allocates.
func grow(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// ForwardBatch computes y_r = act(W x_r + b) for rows row-major
// inputs, caching activations for BackwardBatch. The returned slice
// ([rows × Out], owned by the layer) is valid until the next
// ForwardBatch call.
func (d *Dense) ForwardBatch(x []float64, rows int) []float64 {
	if len(x) < rows*d.In {
		panic("nn: ForwardBatch input shorter than rows*In")
	}
	d.bx = grow(d.bx, rows*d.In)
	d.bz = grow(d.bz, rows*d.Out)
	d.by = grow(d.by, rows*d.Out)
	copy(d.bx, x[:rows*d.In])
	r4 := rows &^ 3
	if r4 > 0 {
		// Z = X·Wᵀ + b, eight output columns at a time: the panel's
		// eight rows of W are packed transposed into wt ([In × 8],
		// contiguous), which matmul then streams from L1 for every row.
		d.wt = grow(d.wt, d.In*min(8, d.Out))
		for c := 0; c < d.Out; c += 8 {
			w := min(8, d.Out-c)
			transpose(d.wt, d.W[c*d.In:(c+w)*d.In], w, d.In)
			matmul(d.bz[c:], d.Out, d.bx, d.In, d.wt, w, r4, d.In, w)
		}
		for r := 0; r < r4; r++ {
			zr := d.bz[r*d.Out : (r+1)*d.Out]
			b := d.B[:len(zr)]
			for o, s := range zr {
				zr[o] = b[o] + s
			}
		}
	}
	for r := r4; r < rows; r++ {
		xr := d.bx[r*d.In : (r+1)*d.In]
		zr := d.bz[r*d.Out : (r+1)*d.Out]
		for o := range zr {
			zr[o] = d.B[o] + dot(d.W[o*d.In:(o+1)*d.In], xr, 1)
		}
	}
	applyBatch(d.Act, d.bz, d.by)
	return d.by
}

// BackwardBatch consumes dL/dY for the rows of the preceding
// ForwardBatch, accumulates dW/dB over the whole minibatch, and
// returns dL/dX ([rows × In], owned by the layer).
func (d *Dense) BackwardBatch(dY []float64, rows int) []float64 {
	return d.backwardBatch(dY, rows, true, true)
}

// backwardBatch is the shared backward kernel: parameter gradients
// accumulate over every row when needParams, and dX is computed for
// every row when needDX.
func (d *Dense) backwardBatch(dY []float64, rows int, needDX, needParams bool) []float64 {
	if len(dY) < rows*d.Out {
		panic("nn: BackwardBatch gradient shorter than rows*Out")
	}
	d.bdz = grow(d.bdz, rows*d.Out)
	derivBatch(d.Act, dY[:rows*d.Out], d.bz, d.by, d.bdz)
	if needParams {
		for r := 0; r < rows; r++ {
			dzr := d.bdz[r*d.Out : (r+1)*d.Out]
			xr := d.bx[r*d.In : (r+1)*d.In]
			for o, dz := range dzr {
				if dz == 0 {
					continue // ReLU zeros are common; skip the row work
				}
				d.dB[o] += dz
				axpyFast(dz, xr, d.dW[o*d.In:(o+1)*d.In])
			}
		}
	}
	if !needDX {
		return nil
	}
	// dX = dZ·W, with W ([Out × In]) read in place: its rows are
	// already laid out along dX's columns.
	d.bdx = grow(d.bdx, rows*d.In)
	r4 := rows &^ 3
	matmul(d.bdx, d.In, d.bdz, d.Out, d.W, d.In, r4, d.Out, d.In)
	for r := r4; r < rows; r++ {
		dzr := d.bdz[r*d.Out : (r+1)*d.Out]
		dxr := d.bdx[r*d.In : (r+1)*d.In]
		for i := range dxr {
			dxr[i] = dot(dzr, d.W[i:], d.In)
		}
	}
	return d.bdx
}

// ForwardBatch runs the network over rows row-major inputs
// ([rows × InputDim]), returning [rows × OutputDim]. The result is
// owned by the last layer and valid until its next forward call.
func (n *Network) ForwardBatch(x []float64, rows int) []float64 {
	out := x
	for _, l := range n.layers {
		out = l.ForwardBatch(out, rows)
	}
	return out
}

// BackwardBatch propagates dL/dOutput ([rows × OutputDim]) for the
// rows of the preceding ForwardBatch through the network, summing
// parameter gradients over the minibatch, and returns dL/dInput
// ([rows × InputDim]).
func (n *Network) BackwardBatch(dOut []float64, rows int) []float64 {
	return n.backwardBatch(dOut, rows, true, true)
}

// BackwardBatchParams is BackwardBatch for callers that only need
// parameter gradients: the first layer's input gradient — pure
// overhead in a critic or actor regression step — is skipped.
func (n *Network) BackwardBatchParams(dOut []float64, rows int) {
	n.backwardBatch(dOut, rows, false, true)
}

// BackwardBatchInput propagates input gradients WITHOUT accumulating
// any parameter gradients — the DDPG actor update pushes dQ/da back
// through the critic and then throws the critic's own gradients
// away, so not computing them saves half the pass.
func (n *Network) BackwardBatchInput(dOut []float64, rows int) []float64 {
	return n.backwardBatch(dOut, rows, true, false)
}

func (n *Network) backwardBatch(dOut []float64, rows int, needInputDX, needParams bool) []float64 {
	d := dOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		needDX := i > 0 || needInputDX
		d = n.layers[i].backwardBatch(d, rows, needDX, needParams)
	}
	return d
}
