package nn

import "math"

// This file is the minibatch fast path: ForwardBatch/BackwardBatch
// process a whole row-major [rows × dim] matrix per call with
// preallocated, layer-owned scratch buffers (zero allocations once
// warm) and ILP-friendly unrolled inner kernels. The scalar
// Forward/Backward path is untouched so single-state inference and
// gob checkpoints behave exactly as before; the batched path is free
// to reassociate floating-point sums for speed.

// dot computes the inner product of a and b (len(b) >= len(a)) with
// four accumulators. The scalar loop `sum += a[i]*b[i]` serializes on
// the add's floating-point latency; four independent chains keep the
// FMA pipeline busy, which is where most of the minibatch speedup
// comes from.
func dot(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// dot4 computes the inner products of w against four input rows at
// once: the weight row is loaded once per element, and the eight
// accumulator chains (two per row) saturate both the FP latency and
// throughput limits of a scalar core.
func dot4(w, x0, x1, x2, x3 []float64) (r0, r1, r2, r3 float64) {
	n := len(w)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	i := 0
	for ; i+2 <= n; i += 2 {
		w0, w1 := w[i], w[i+1]
		a0 += w0 * x0[i]
		b0 += w1 * x0[i+1]
		a1 += w0 * x1[i]
		b1 += w1 * x1[i+1]
		a2 += w0 * x2[i]
		b2 += w1 * x2[i+1]
		a3 += w0 * x3[i]
		b3 += w1 * x3[i+1]
	}
	if i < n {
		w0 := w[i]
		a0 += w0 * x0[i]
		a1 += w0 * x1[i]
		a2 += w0 * x2[i]
		a3 += w0 * x3[i]
	}
	return a0 + b0, a1 + b1, a2 + b2, a3 + b3
}

// axpy computes y += alpha*x. The iterations are independent, so the
// plain loop already pipelines well.
func axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// dot4rows dispatches the four-row dot product to the AVX2 kernel
// when available.
func dot4rows(w, x0, x1, x2, x3 []float64) (float64, float64, float64, float64) {
	if useSIMD {
		return dot4asm(&w[0], &x0[0], &x1[0], &x2[0], &x3[0], len(w))
	}
	return dot4(w, x0, x1, x2, x3)
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
	r := 0
	for ; r+4 <= rows; r += 4 {
		x0 := d.bx[r*d.In : (r+1)*d.In]
		x1 := d.bx[(r+1)*d.In : (r+2)*d.In]
		x2 := d.bx[(r+2)*d.In : (r+3)*d.In]
		x3 := d.bx[(r+3)*d.In : (r+4)*d.In]
		for o := 0; o < d.Out; o++ {
			s0, s1, s2, s3 := dot4rows(d.W[o*d.In:(o+1)*d.In], x0, x1, x2, x3)
			b := d.B[o]
			d.bz[r*d.Out+o] = b + s0
			d.bz[(r+1)*d.Out+o] = b + s1
			d.bz[(r+2)*d.Out+o] = b + s2
			d.bz[(r+3)*d.Out+o] = b + s3
		}
	}
	for ; r < rows; r++ {
		xr := d.bx[r*d.In : (r+1)*d.In]
		zr := d.bz[r*d.Out : (r+1)*d.Out]
		for o := 0; o < d.Out; o++ {
			zr[o] = d.B[o] + dot(d.W[o*d.In:(o+1)*d.In], xr)
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
	// dX = dz × W, computed against a transposed weight copy so each
	// dX element is a contiguous dot product (dot4 ILP) instead of a
	// strided read-modify-write accumulation.
	d.wt = grow(d.wt, d.In*d.Out)
	for o := 0; o < d.Out; o++ {
		row := d.W[o*d.In : (o+1)*d.In]
		for i, w := range row {
			d.wt[i*d.Out+o] = w
		}
	}
	d.bdx = grow(d.bdx, rows*d.In)
	r := 0
	for ; r+4 <= rows; r += 4 {
		dz0 := d.bdz[r*d.Out : (r+1)*d.Out]
		dz1 := d.bdz[(r+1)*d.Out : (r+2)*d.Out]
		dz2 := d.bdz[(r+2)*d.Out : (r+3)*d.Out]
		dz3 := d.bdz[(r+3)*d.Out : (r+4)*d.Out]
		for i := 0; i < d.In; i++ {
			s0, s1, s2, s3 := dot4rows(d.wt[i*d.Out:(i+1)*d.Out], dz0, dz1, dz2, dz3)
			d.bdx[r*d.In+i] = s0
			d.bdx[(r+1)*d.In+i] = s1
			d.bdx[(r+2)*d.In+i] = s2
			d.bdx[(r+3)*d.In+i] = s3
		}
	}
	for ; r < rows; r++ {
		dzr := d.bdz[r*d.Out : (r+1)*d.Out]
		dxr := d.bdx[r*d.In : (r+1)*d.In]
		for i := 0; i < d.In; i++ {
			dxr[i] = dot(dzr, d.wt[i*d.Out:(i+1)*d.Out])
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
