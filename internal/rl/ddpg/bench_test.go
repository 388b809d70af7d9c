package ddpg

import (
	"math/rand"
	"testing"

	"greennfv/internal/rl/replay"
)

// BenchmarkAgentLearn measures one batched DDPG update at the
// GreenNFV problem size (12-dim state, 15-dim action, 48×48 hidden,
// batch 32) with a warm replay buffer. The steady state should not
// allocate.
func BenchmarkAgentLearn(b *testing.B) {
	cfg := DefaultConfig(12, 15)
	a, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4*cfg.BatchSize; i++ {
		s := make([]float64, 12)
		act := make([]float64, 15)
		ns := make([]float64, 12)
		for j := range s {
			s[j] = rng.NormFloat64()
			ns[j] = rng.NormFloat64()
		}
		for j := range act {
			act[j] = 2*rng.Float64() - 1
		}
		a.Observe(replay.Transition{State: s, Action: act, Reward: rng.NormFloat64(), NextState: ns})
	}
	a.Learn() // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Learn()
	}
}

// benchActBatch measures one batched acting pass over n parallel
// actors' states at the GreenNFV problem size — the VecActor driver's
// per-step policy cost.
func benchActBatch(b *testing.B, n int) {
	cfg := DefaultConfig(12, 15)
	a, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	noises := make([]*OUNoise, n)
	for i := range noises {
		noises[i] = NewOUNoise(cfg.ActionDim, cfg.OUTheta, 0.3*(1+0.5*float64(i)),
			rand.New(rand.NewSource(int64(i)+1)))
	}
	rng := rand.New(rand.NewSource(3))
	states := make([]float64, n*cfg.StateDim)
	for i := range states {
		states[i] = rng.NormFloat64()
	}
	dst := make([]float64, n*cfg.ActionDim)
	if err := a.ActBatch(states, n, noises, dst); err != nil { // warm the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.ActBatch(states, n, noises, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkActBatch: the f64 row path (bit-identical to scalar acting)
// over the default 4-actor fleet.
func BenchmarkActBatch(b *testing.B) { benchActBatch(b, 4) }
