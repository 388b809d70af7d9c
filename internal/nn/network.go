package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer non-linearity.
type Activation int

// Supported activations.
const (
	// Linear is the identity.
	Linear Activation = iota
	// ReLU is max(0, x).
	ReLU
	// Tanh squashes to (-1, 1) — the DDPG actor's output activation.
	Tanh
	// Sigmoid squashes to (0, 1).
	Sigmoid
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	default:
		return x
	}
}

// derivative computes dAct/dz given the post-activation output y and
// pre-activation z.
func (a Activation) derivative(y, z float64) float64 {
	switch a {
	case ReLU:
		if z > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case Sigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// Dense is one fully connected layer y = act(Wx + b).
type Dense struct {
	In, Out int
	Act     Activation
	// W is row-major Out x In; B has Out entries.
	W, B []float64
	// dW and dB accumulate gradients across Backward calls.
	dW, dB []float64
	// forward caches for backprop.
	x, z, y []float64
	// dx is the reusable scalar-Backward output buffer.
	dx []float64
	// batch-path caches and scratch (see batch.go), lazily sized to
	// the largest minibatch seen; wt is the transposed weight copy
	// the batched backward uses for input gradients.
	bx, bz, by, bdz, bdx, wt []float64
}

// newDense builds a layer with Xavier/Glorot-uniform weights.
func newDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out, Act: act,
		W: make([]float64, in*out), B: make([]float64, out),
		dW: make([]float64, in*out), dB: make([]float64, out),
		x: make([]float64, in), z: make([]float64, out), y: make([]float64, out),
	}
	limit := math.Sqrt(6 / float64(in+out))
	for i := range d.W {
		d.W[i] = (2*rng.Float64() - 1) * limit
	}
	return d
}

// Forward computes the layer output, caching inputs for Backward.
func (d *Dense) Forward(x []float64) []float64 {
	copy(d.x, x)
	for o := 0; o < d.Out; o++ {
		sum := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		d.z[o] = sum
		d.y[o] = d.Act.apply(sum)
	}
	return d.y
}

// Backward consumes dL/dy, accumulates dW/dB, and returns dL/dx.
// The returned slice is owned by the layer and valid until its next
// Backward call.
func (d *Dense) Backward(dY []float64) []float64 {
	if d.dx == nil {
		d.dx = make([]float64, d.In)
	}
	dX := d.dx
	for i := range dX {
		dX[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		dz := dY[o] * d.Act.derivative(d.y[o], d.z[o])
		d.dB[o] += dz
		row := d.W[o*d.In : (o+1)*d.In]
		dRow := d.dW[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			dRow[i] += dz * d.x[i]
			dX[i] += dz * row[i]
		}
	}
	return dX
}

// Network is a feed-forward stack of dense layers.
type Network struct {
	layers []*Dense
	// cached ParamSlices/GradSlices headers (the layer buffers they
	// point at never move), so optimizer steps don't allocate.
	pSlices, gSlices [][]float64
}

// NewMLP builds a multilayer perceptron with the given layer sizes
// (sizes[0] = input dim, sizes[len-1] = output dim), hidden
// activation for interior layers and outAct for the final layer.
func NewMLP(sizes []int, hidden, outAct Activation, rng *rand.Rand) (*Network, error) {
	if len(sizes) < 2 {
		return nil, errors.New("nn: MLP needs at least input and output sizes")
	}
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("nn: layer %d size %d invalid", i, s)
		}
	}
	if rng == nil {
		return nil, errors.New("nn: need a random source for initialization")
	}
	n := &Network{}
	for i := 0; i < len(sizes)-1; i++ {
		act := hidden
		if i == len(sizes)-2 {
			act = outAct
		}
		n.layers = append(n.layers, newDense(sizes[i], sizes[i+1], act, rng))
	}
	return n, nil
}

// MustMLP is NewMLP that panics on error.
func MustMLP(sizes []int, hidden, outAct Activation, rng *rand.Rand) *Network {
	n, err := NewMLP(sizes, hidden, outAct, rng)
	if err != nil {
		panic(err)
	}
	return n
}

// InputDim reports the expected input length.
func (n *Network) InputDim() int { return n.layers[0].In }

// OutputDim reports the output length.
func (n *Network) OutputDim() int { return n.layers[len(n.layers)-1].Out }

// Forward runs the network. The returned slice is owned by the last
// layer and valid until the next Forward; copy it to retain.
func (n *Network) Forward(x []float64) []float64 {
	out := x
	for _, l := range n.layers {
		out = l.Forward(out)
	}
	return out
}

// Backward propagates dL/dOutput through the network, accumulating
// parameter gradients, and returns dL/dInput.
func (n *Network) Backward(dOut []float64) []float64 {
	d := dOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		d = n.layers[i].Backward(d)
	}
	return d
}

// ZeroGrad clears accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, l := range n.layers {
		for i := range l.dW {
			l.dW[i] = 0
		}
		for i := range l.dB {
			l.dB[i] = 0
		}
	}
}

// ScaleGrad multiplies all accumulated gradients by f (used to
// average over a minibatch).
func (n *Network) ScaleGrad(f float64) {
	for _, l := range n.layers {
		if useSIMD {
			scaleasm(f, &l.dW[0], len(l.dW))
			scaleasm(f, &l.dB[0], len(l.dB))
			continue
		}
		for i := range l.dW {
			l.dW[i] *= f
		}
		for i := range l.dB {
			l.dB[i] *= f
		}
	}
}

// ParamSlices exposes the parameter buffers (weights then biases,
// layer by layer) for optimizers and synchronization.
func (n *Network) ParamSlices() [][]float64 {
	if n.pSlices == nil {
		for _, l := range n.layers {
			n.pSlices = append(n.pSlices, l.W, l.B)
		}
	}
	return n.pSlices
}

// GradSlices exposes gradient buffers in the same order as
// ParamSlices.
func (n *Network) GradSlices() [][]float64 {
	if n.gSlices == nil {
		for _, l := range n.layers {
			n.gSlices = append(n.gSlices, l.dW, l.dB)
		}
	}
	return n.gSlices
}

// NumParams reports the total parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.layers {
		total += len(l.W) + len(l.B)
	}
	return total
}

// Clone deep-copies the network (fresh caches, same weights).
func (n *Network) Clone() *Network {
	c := &Network{}
	for _, l := range n.layers {
		nl := &Dense{
			In: l.In, Out: l.Out, Act: l.Act,
			W: append([]float64(nil), l.W...), B: append([]float64(nil), l.B...),
			dW: make([]float64, len(l.dW)), dB: make([]float64, len(l.dB)),
			x: make([]float64, l.In), z: make([]float64, l.Out), y: make([]float64, l.Out),
		}
		c.layers = append(c.layers, nl)
	}
	return c
}

// CopyParamsFrom overwrites this network's parameters with src's.
// The topologies must match.
func (n *Network) CopyParamsFrom(src *Network) error {
	dst := n.ParamSlices()
	from := src.ParamSlices()
	if len(dst) != len(from) {
		return errors.New("nn: topology mismatch")
	}
	for i := range dst {
		if len(dst[i]) != len(from[i]) {
			return errors.New("nn: layer size mismatch")
		}
		copy(dst[i], from[i])
	}
	return nil
}

// SoftUpdate moves this network's parameters toward src:
// θ ← τ·θ_src + (1−τ)·θ. This is the DDPG target-network update
// (Algorithm 2, lines 9–10).
func (n *Network) SoftUpdate(src *Network, tau float64) error {
	if tau < 0 || tau > 1 {
		return errors.New("nn: tau must be in [0,1]")
	}
	dst := n.ParamSlices()
	from := src.ParamSlices()
	if len(dst) != len(from) {
		return errors.New("nn: topology mismatch")
	}
	for i := range dst {
		if len(dst[i]) != len(from[i]) {
			return errors.New("nn: layer size mismatch")
		}
		if useSIMD && len(dst[i]) > 0 {
			// Vectorized, bit-identical to the loop below.
			axpbyasm(tau, &from[i][0], &dst[i][0], len(dst[i]))
			continue
		}
		for j := range dst[i] {
			dst[i][j] = tau*from[i][j] + (1-tau)*dst[i][j]
		}
	}
	return nil
}

// netState is the gob-serializable form.
type netState struct {
	Sizes []int
	Acts  []Activation
	W     [][]float64
	B     [][]float64
}

// MarshalBinary implements encoding.BinaryMarshaler for checkpoints
// and Ape-X parameter sync.
func (n *Network) MarshalBinary() ([]byte, error) {
	st := netState{}
	for i, l := range n.layers {
		if i == 0 {
			st.Sizes = append(st.Sizes, l.In)
		}
		st.Sizes = append(st.Sizes, l.Out)
		st.Acts = append(st.Acts, l.Act)
		st.W = append(st.W, l.W)
		st.B = append(st.B, l.B)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (n *Network) UnmarshalBinary(data []byte) error {
	var st netState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	if len(st.Sizes) < 2 || len(st.Acts) != len(st.Sizes)-1 {
		return errors.New("nn: corrupt network state")
	}
	n.layers = nil
	n.pSlices, n.gSlices = nil, nil
	for i := 0; i < len(st.Sizes)-1; i++ {
		in, out := st.Sizes[i], st.Sizes[i+1]
		if len(st.W[i]) != in*out || len(st.B[i]) != out {
			return errors.New("nn: corrupt layer state")
		}
		l := &Dense{
			In: in, Out: out, Act: st.Acts[i],
			W: append([]float64(nil), st.W[i]...), B: append([]float64(nil), st.B[i]...),
			dW: make([]float64, in*out), dB: make([]float64, out),
			x: make([]float64, in), z: make([]float64, out), y: make([]float64, out),
		}
		n.layers = append(n.layers, l)
	}
	return nil
}
