package ddpg

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"greennfv/internal/rl/replay"
)

// fillAgent seeds an agent's replay with random transitions.
func fillAgent(t testing.TB, a *Agent, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	cfg := a.Config()
	for i := 0; i < n; i++ {
		s := make([]float64, cfg.StateDim)
		act := make([]float64, cfg.ActionDim)
		ns := make([]float64, cfg.StateDim)
		for j := range s {
			s[j] = rng.NormFloat64()
			ns[j] = rng.NormFloat64()
		}
		for j := range act {
			act[j] = 2*rng.Float64() - 1
		}
		a.Observe(replay.Transition{State: s, Action: act, Reward: rng.NormFloat64(), NextState: ns})
	}
}

// TestLearnBatchLearns drives the prefetcher-path update on a
// sharded replay end to end: externally sampled minibatch in,
// finite loss, a bumped learn-step counter and annealed beta out.
func TestLearnBatchLearns(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	cfg.Hidden = []int{16, 16}
	cfg.BatchSize = 8
	cfg.PERBetaInc = 1e-3
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := replay.NewSharded(cfg.BufferCap, 4, cfg.PERAlpha, cfg.PERBeta, cfg.PERBetaInc, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetReplay(sharded); err != nil {
		t.Fatal(err)
	}
	fillAgent(t, a, 64)

	rng := rand.New(rand.NewSource(7))
	samples := make([]replay.Transition, 0, cfg.BatchSize)
	indices := make([]int, 0, cfg.BatchSize)
	weights := make([]float64, 0, cfg.BatchSize)
	betaBefore := sharded.Beta()
	for i := 0; i < 20; i++ {
		s, idx, w := a.SampleReplayInto(rng, cfg.BatchSize, samples, indices, weights)
		if len(s) != cfg.BatchSize {
			t.Fatalf("sampled %d, want %d", len(s), cfg.BatchSize)
		}
		loss := a.LearnBatch(s, idx, w)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("step %d: loss %v", i, loss)
		}
	}
	if got := a.LearnSteps(); got != 20 {
		t.Errorf("learn steps = %d, want 20", got)
	}
	if sharded.Beta() <= betaBefore {
		t.Error("beta did not anneal through the external sampling path")
	}
	// Empty and oversized batches are handled.
	if loss := a.LearnBatch(nil, nil, nil); loss != 0 {
		t.Errorf("empty batch loss = %v", loss)
	}
}

// TestLearnBatchMatchesLearn: Learn and LearnBatch run one update
// body and differ only in where the minibatch comes from. Fed the
// minibatch Learn would draw, LearnBatch must make the bit-identical
// update.
func TestLearnBatchMatchesLearn(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	cfg.Hidden = []int{16, 16}
	cfg.BatchSize = 8
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillAgent(t, a, 4*cfg.BatchSize)
	fillAgent(t, b, 4*cfg.BatchSize)
	for step := 0; step < 5; step++ {
		lossA := a.Learn()
		s, idx, w := b.SampleReplayInto(b.rng, cfg.BatchSize, nil, nil, nil)
		lossB := b.LearnBatch(s, idx, w)
		if lossA != lossB {
			t.Fatalf("step %d: Learn loss %v, LearnBatch loss %v", step, lossA, lossB)
		}
		wa, _ := a.StateBytes(true)
		wb, _ := b.StateBytes(true)
		if !bytes.Equal(wa, wb) {
			t.Fatalf("step %d: agent state diverged between Learn and LearnBatch", step)
		}
	}
}

// TestLearnBatchZeroAlloc is the acceptance gate on the prefetcher
// path: with warm scratch and caller-owned sample buffers, one
// sample+learn cycle — exactly what the pipeline's sampler and
// learner goroutines execute — must not allocate.
func TestLearnBatchZeroAlloc(t *testing.T) {
	cfg := DefaultConfig(12, 15)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := replay.NewSharded(cfg.BufferCap, 8, cfg.PERAlpha, cfg.PERBeta, cfg.PERBetaInc, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetReplay(sharded); err != nil {
		t.Fatal(err)
	}
	fillAgent(t, a, 4*cfg.BatchSize)

	rng := rand.New(rand.NewSource(11))
	samples := make([]replay.Transition, 0, cfg.BatchSize)
	indices := make([]int, 0, cfg.BatchSize)
	weights := make([]float64, 0, cfg.BatchSize)
	// Warm the agent scratch and the network layer scratch.
	s, idx, w := a.SampleReplayInto(rng, cfg.BatchSize, samples, indices, weights)
	a.LearnBatch(s, idx, w)

	allocs := testing.AllocsPerRun(20, func() {
		s, idx, w := a.SampleReplayInto(rng, cfg.BatchSize, samples, indices, weights)
		if a.LearnBatch(s, idx, w) < 0 {
			t.Fatal("negative loss")
		}
	})
	if allocs != 0 {
		t.Errorf("prefetcher path allocates %v/op, want 0", allocs)
	}
}

// TestSetReplayGuards: swapping is only allowed on an empty
// prioritized agent.
func TestSetReplayGuards(t *testing.T) {
	cfg := DefaultConfig(4, 3)
	cfg.Hidden = []int{8}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := replay.NewSharded(cfg.BufferCap, 2, cfg.PERAlpha, cfg.PERBeta, cfg.PERBetaInc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetReplay(nil); err == nil {
		t.Error("nil buffer accepted")
	}
	fillAgent(t, a, 1)
	if err := a.SetReplay(sharded); err == nil {
		t.Error("swap over non-empty buffer accepted")
	}

	cfg.Prioritized = false
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.SetReplay(sharded); err == nil {
		t.Error("swap on uniform agent accepted")
	}
}

// BenchmarkAgentLearnBatch measures the prefetcher-path update
// (externally sampled minibatch + LearnBatch) at the GreenNFV problem
// size, the per-update cost the parallel learner pays.
func BenchmarkAgentLearnBatch(b *testing.B) {
	cfg := DefaultConfig(12, 15)
	a, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sharded, err := replay.NewSharded(cfg.BufferCap, 8, cfg.PERAlpha, cfg.PERBeta, cfg.PERBetaInc, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	if err := a.SetReplay(sharded); err != nil {
		b.Fatal(err)
	}
	fillAgent(b, a, 4*cfg.BatchSize)
	rng := rand.New(rand.NewSource(5))
	samples := make([]replay.Transition, 0, cfg.BatchSize)
	indices := make([]int, 0, cfg.BatchSize)
	weights := make([]float64, 0, cfg.BatchSize)
	s, idx, w := a.SampleReplayInto(rng, cfg.BatchSize, samples, indices, weights)
	a.LearnBatch(s, idx, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, idx, w := a.SampleReplayInto(rng, cfg.BatchSize, samples, indices, weights)
		a.LearnBatch(s, idx, w)
	}
}
