package ddpg

import (
	"math/rand"
	"testing"

	"greennfv/internal/rl/replay"
)

// actConfig is smallConfig with nontrivial dims for batching tests.
func actConfig() Config {
	cfg := DefaultConfig(5, 3)
	cfg.Hidden = []int{18, 14}
	cfg.BatchSize = 8
	cfg.BufferCap = 1024
	return cfg
}

// ActInto must be bit-identical to Act and consume the noise RNG the
// same way: two identically-seeded agents stepped through the two
// entry points may never diverge.
func TestActIntoMatchesAct(t *testing.T) {
	a, err := New(actConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(actConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	state := make([]float64, 5)
	dst := make([]float64, 3)
	for step := 0; step < 50; step++ {
		for i := range state {
			state[i] = rng.NormFloat64()
		}
		explore := step%3 != 0
		want, err := a.Act(state, explore)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.ActInto(state, explore, dst); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("step %d: ActInto[%d] = %v, Act = %v (not bit-identical)", step, i, dst[i], want[i])
			}
		}
	}
	if err := b.ActInto(state, false, dst[:2]); err == nil {
		t.Error("short dst accepted")
	}
}

// ActBatch on the f64 path must be bit-identical to the scalar
// reference — one Forward per row plus that row's own OU noise plus
// the clamp — at any row count. This is the parity the VecActor driver
// stands on.
func TestActBatchMatchesScalarReference(t *testing.T) {
	cfg := actConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg) // identical weights: same seed
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 4, 7} {
		noises := make([]*OUNoise, n)
		refNoises := make([]*OUNoise, n)
		for i := range noises {
			sigma := 0.2 * (1 + 0.5*float64(i))
			noises[i] = NewOUNoise(cfg.ActionDim, cfg.OUTheta, sigma, rand.New(rand.NewSource(300+int64(i))))
			refNoises[i] = NewOUNoise(cfg.ActionDim, cfg.OUTheta, sigma, rand.New(rand.NewSource(300+int64(i))))
		}
		rng := rand.New(rand.NewSource(900 + int64(n)))
		states := make([]float64, n*cfg.StateDim)
		dst := make([]float64, n*cfg.ActionDim)
		for round := 0; round < 10; round++ {
			for i := range states {
				states[i] = rng.NormFloat64()
			}
			if err := a.ActBatch(states, n, noises, dst); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < n; r++ {
				out := ref.Actor.Forward(states[r*cfg.StateDim : (r+1)*cfg.StateDim])
				noise := refNoises[r].Sample()
				for i := 0; i < cfg.ActionDim; i++ {
					want := out[i] + noise[i]
					if want < -1 {
						want = -1
					}
					if want > 1 {
						want = 1
					}
					if got := dst[r*cfg.ActionDim+i]; got != want {
						t.Fatalf("n=%d round %d row %d: ActBatch[%d] = %v, scalar reference %v (not bit-identical)",
							n, round, r, i, got, want)
					}
				}
			}
		}
	}
}

// randomTransitions builds transitions with the agent's dims.
func randomTransitions(cfg Config, n int, seed int64) []replay.Transition {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]replay.Transition, n)
	for i := range ts {
		s := make([]float64, cfg.StateDim)
		ns := make([]float64, cfg.StateDim)
		act := make([]float64, cfg.ActionDim)
		for j := range s {
			s[j], ns[j] = rng.NormFloat64(), rng.NormFloat64()
		}
		for j := range act {
			act[j] = rng.Float64()*2 - 1
		}
		ts[i] = replay.Transition{
			State: s, Action: act, NextState: ns,
			Reward: rng.NormFloat64(), Done: i%5 == 4,
		}
	}
	return ts
}

// TDErrorBatch must be bit-identical to the scalar
// TDError per transition — the actors' priority settlement and the
// remote -verifyprio check both demand it.
func TestTDErrorBatchMatchesScalar(t *testing.T) {
	cfg := actConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, n := range []int{1, 4, 9} {
		ts := randomTransitions(cfg, n, 400+int64(n))
		out = a.TDErrorBatch(ts, out)
		if len(out) != n {
			t.Fatalf("n=%d: got %d errors", n, len(out))
		}
		for i, tr := range ts {
			if want := a.TDError(tr); out[i] != want {
				t.Fatalf("n=%d: TDErrorBatch[%d] = %v, TDError = %v (not bit-identical)", n, i, out[i], want)
			}
		}
	}
}

// The batched acting entry points are per-step hot paths: zero
// allocations once the scratch has grown.
func TestActBatchNoAllocs(t *testing.T) {
	cfg := actConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	noises := make([]*OUNoise, n)
	for i := range noises {
		noises[i] = NewOUNoise(cfg.ActionDim, cfg.OUTheta, 0.3, rand.New(rand.NewSource(int64(i))))
	}
	states := make([]float64, n*cfg.StateDim)
	dst := make([]float64, n*cfg.ActionDim)
	ts := randomTransitions(cfg, n, 42)
	var td []float64
	a.ActBatch(states, n, noises, dst)
	td = a.TDErrorBatch(ts, td)
	if avg := testing.AllocsPerRun(50, func() { a.ActBatch(states, n, noises, dst) }); avg != 0 {
		t.Errorf("ActBatch allocates %.1f per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { td = a.TDErrorBatch(ts, td) }); avg != 0 {
		t.Errorf("TDErrorBatch allocates %.1f per call, want 0", avg)
	}
}
