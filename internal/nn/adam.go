package nn

import (
	"errors"
	"math"
)

// Adam is the Adam optimizer (Kingma & Ba) with optional gradient
// clipping, matching the optimizer the paper's TensorFlow learner
// uses for both DDPG networks.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	// ClipNorm caps the global gradient L2 norm when positive.
	ClipNorm float64

	t int
	m [][]float64
	v [][]float64
}

// NewAdam builds an optimizer with standard hyperparameters.
func NewAdam(lr float64) (*Adam, error) {
	if lr <= 0 {
		return nil, errors.New("nn: learning rate must be positive")
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}, nil
}

// MustAdam is NewAdam that panics on error.
func MustAdam(lr float64) *Adam {
	a, err := NewAdam(lr)
	if err != nil {
		panic(err)
	}
	return a
}

// Step applies one update to the network from its accumulated
// gradients. The caller is responsible for ZeroGrad afterwards.
func (a *Adam) Step(n *Network) {
	params := n.ParamSlices()
	grads := n.GradSlices()
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i := range params {
			a.m[i] = make([]float64, len(params[i]))
			a.v[i] = make([]float64, len(params[i]))
		}
	}
	if a.ClipNorm > 0 {
		var norm float64
		for i := range grads {
			for _, g := range grads[i] {
				norm += g * g
			}
		}
		norm = math.Sqrt(norm)
		if norm > a.ClipNorm {
			scale := a.ClipNorm / norm
			for i := range grads {
				if useSIMD && len(grads[i]) > 0 {
					scaleasm(scale, &grads[i][0], len(grads[i]))
					continue
				}
				for j := range grads[i] {
					grads[i][j] *= scale
				}
			}
		}
	}
	a.t++
	b1c := 1 - math.Pow(a.Beta1, float64(a.t))
	b2c := 1 - math.Pow(a.Beta2, float64(a.t))
	for i := range params {
		p, g, m, v := params[i], grads[i], a.m[i], a.v[i]
		if useSIMD && len(p) > 0 {
			// Vectorized update, bit-identical to the loop below.
			adamasm(&p[0], &g[0], &m[0], &v[0], len(p),
				a.Beta1, a.Beta2, a.LR, a.Epsilon, b1c, b2c)
			continue
		}
		for j := range p {
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g[j]
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g[j]*g[j]
			mHat := m[j] / b1c
			vHat := v[j] / b2c
			p[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
		}
	}
}

// Reset clears moment estimates (e.g. after loading a checkpoint).
func (a *Adam) Reset() {
	a.t = 0
	a.m, a.v = nil, nil
}

// AdamState is the serializable optimizer state: the step counter and
// first/second moment estimates. Together with the network parameters
// it is everything a checkpoint needs to make the next optimizer step
// bit-identical to an uninterrupted run.
type AdamState struct {
	T    int
	M, V [][]float64
}

// State deep-copies the optimizer's moment estimates for
// checkpointing. A fresh optimizer returns a zero state.
func (a *Adam) State() AdamState {
	st := AdamState{T: a.t}
	for i := range a.m {
		st.M = append(st.M, append([]float64(nil), a.m[i]...))
		st.V = append(st.V, append([]float64(nil), a.v[i]...))
	}
	return st
}

// SetState restores checkpointed moment estimates. n, when non-nil, is
// the network this optimizer will step: the moment shapes must match
// its parameter slices exactly (a zero state matches any network — it
// restores a fresh optimizer).
func (a *Adam) SetState(st AdamState, n *Network) error {
	if len(st.M) != len(st.V) {
		return errors.New("nn: adam state m/v length mismatch")
	}
	if n != nil && st.M != nil {
		params := n.ParamSlices()
		if len(st.M) != len(params) {
			return errors.New("nn: adam state does not match network topology")
		}
		for i := range params {
			if len(st.M[i]) != len(params[i]) || len(st.V[i]) != len(params[i]) {
				return errors.New("nn: adam state does not match network layer sizes")
			}
		}
	}
	a.t = st.T
	a.m, a.v = nil, nil
	for i := range st.M {
		a.m = append(a.m, append([]float64(nil), st.M[i]...))
		a.v = append(a.v, append([]float64(nil), st.V[i]...))
	}
	return nil
}
