package ddpg

import (
	"fmt"

	"greennfv/internal/rl/replay"
)

// This file is the batched acting fast path of the Ape-X actor half:
// one network pass serves every parallel actor's action (ActBatch) and
// three row passes serve a whole staging buffer's TD-error priorities
// (TDErrorBatch), replacing the per-state scalar forwards. Both run on
// nn.ForwardRows, whose per-row results are bit-identical to the
// scalar Forward: batching over rows changes NOTHING numerically — the
// deterministic round-robin figure path and the remote actors'
// bit-for-bit priority verification both rely on this.
//
// All entry points run over agent-owned scratch: zero allocations in
// steady state (buffers grow to the largest batch seen and stick).

// growFloat64 returns buf resized to n, reallocating only when
// capacity is insufficient.
func growFloat64(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// ActInto is Act without the per-call allocation: the clamped policy
// action (plus OU noise when explore is set) is written into dst,
// which must have length ActionDim. The result is bit-identical to Act
// and consumes the agent's noise RNG identically.
func (a *Agent) ActInto(state []float64, explore bool, dst []float64) error {
	if len(state) != a.cfg.StateDim {
		return fmt.Errorf("ddpg: state dim %d, want %d", len(state), a.cfg.StateDim)
	}
	if len(dst) != a.cfg.ActionDim {
		return fmt.Errorf("ddpg: action dst dim %d, want %d", len(dst), a.cfg.ActionDim)
	}
	out := a.Actor.Forward(state)
	copy(dst, out)
	if explore {
		noise := a.noise.Sample()
		for i := range dst {
			dst[i] += noise[i]
		}
	}
	for i := range dst {
		if dst[i] < -1 {
			dst[i] = -1
		}
		if dst[i] > 1 {
			dst[i] = 1
		}
	}
	return nil
}

// ActBatch computes policy actions for n states (row-major
// [n × StateDim]) in ONE actor-network pass, writing the clamped
// actions into dst ([n × ActionDim]). noises[i], when non-nil, supplies
// row i's exploration noise — each parallel actor keeps its own OU
// process so the Ape-X exploration ladder survives batching. noises
// may be nil (greedy batch).
//
// Each row is bit-identical to ActInto with the same noise process.
func (a *Agent) ActBatch(states []float64, n int, noises []*OUNoise, dst []float64) error {
	S, A := a.cfg.StateDim, a.cfg.ActionDim
	if len(states) < n*S {
		return fmt.Errorf("ddpg: ActBatch states len %d, want %d", len(states), n*S)
	}
	if len(dst) < n*A {
		return fmt.Errorf("ddpg: ActBatch dst len %d, want %d", len(dst), n*A)
	}
	if noises != nil && len(noises) < n {
		return fmt.Errorf("ddpg: ActBatch has %d noise processes for %d rows", len(noises), n)
	}
	out := a.Actor.ForwardRows(states, n)
	copy(dst[:n*A], out)
	for r := 0; r < n; r++ {
		row := dst[r*A : (r+1)*A]
		if noises != nil && noises[r] != nil {
			noise := noises[r].Sample()
			for i := range row {
				row[i] += noise[i]
			}
		}
		for i := range row {
			if row[i] < -1 {
				row[i] = -1
			}
			if row[i] > 1 {
				row[i] = 1
			}
		}
	}
	return nil
}

// TDErrorBatch computes the signed TD errors of a whole transition
// batch in three batched network passes (target actor, target critic,
// critic) instead of 3·n scalar forwards — the Ape-X actors' priority
// computation at Flush granularity. The errors are appended to out
// (truncated to length zero first) and the returned slice is valid
// until the next call. out[i] is bit-identical to TDError(batch[i]).
func (a *Agent) TDErrorBatch(batch []replay.Transition, out []float64) []float64 {
	n := len(batch)
	out = growFloat64(out[:0], n)
	if n == 0 {
		return out
	}
	S, A := a.cfg.StateDim, a.cfg.ActionDim
	SA := S + A
	a.actNext = growFloat64(a.actNext, n*S)
	a.actNextSA = growFloat64(a.actNextSA, n*SA)
	a.actSA = growFloat64(a.actSA, n*SA)
	for i := range batch {
		t := &batch[i]
		copy(a.actNext[i*S:(i+1)*S], t.NextState)
		copy(a.actNextSA[i*SA:], t.NextState)
		copy(a.actSA[i*SA:], t.State)
		copy(a.actSA[i*SA+S:(i+1)*SA], t.Action)
	}
	nextA := a.actorTarget.ForwardRows(a.actNext, n)
	for i := 0; i < n; i++ {
		copy(a.actNextSA[i*SA+S:(i+1)*SA], nextA[i*A:(i+1)*A])
	}
	qNext := a.criticTarget.ForwardRows(a.actNextSA, n)
	q := a.Critic.ForwardRows(a.actSA, n)
	for i := range batch {
		target := batch[i].Reward
		if !batch[i].Done {
			target += a.cfg.Gamma * qNext[i]
		}
		out[i] = target - q[i]
	}
	return out
}
