package ddpg

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"greennfv/internal/rl/replay"
)

// fillReplay observes n random transitions so Learn has experience to
// sample; the transitions are independent of the agent's own RNG so
// the agent stream position is exercised only by Act/Learn.
func fillReplay(a *Agent, cfg Config, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s := make([]float64, cfg.StateDim)
		ns := make([]float64, cfg.StateDim)
		act := make([]float64, cfg.ActionDim)
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

// legacyAdamState is nn.AdamState as checkpoints wrote it while the
// learner also had a single-precision path: T32/M32/V32 carried that
// path's step counter and moments. Gob sends every float as a float64,
// so [][]float64 here puts the same fields on the wire.
type legacyAdamState struct {
	T        int
	M, V     [][]float64
	T32      int
	M32, V32 [][]float64
}

// legacyAgentState is agentState with the legacy optimizer fields.
type legacyAgentState struct {
	Cfg                                      Config
	Actor, Critic, ActorTarget, CriticTarget []byte
	ActorOpt, CriticOpt                      legacyAdamState
	NoiseState                               []float64
	NoiseSigma                               float64
	RNGDraws                                 uint64
	LearnSteps                               int
	Replay                                   *replay.PrioritizedState
	ShardedReplay                            *replay.ShardedState
}

// legacyStateBlob re-encodes a SaveState blob with non-empty legacy
// single-precision Adam moments, as an older checkpoint carries them.
func legacyStateBlob(t *testing.T, blob []byte) []byte {
	t.Helper()
	var st legacyAgentState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, opt := range []*legacyAdamState{&st.ActorOpt, &st.CriticOpt} {
		opt.T32 = opt.T + 3
		for _, m := range opt.M {
			opt.M32 = append(opt.M32, append([]float64(nil), m...))
			opt.V32 = append(opt.V32, make([]float64, len(m)))
		}
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&st); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// runCheckpointRoundTrip drives an agent through warmup learning,
// checkpoints it mid-run, restores into a fresh agent and asserts the
// two futures are bit-identical: same ActorBytes immediately after
// restore and after every further update, same losses, same
// exploration actions (noise + RNG stream parity). With legacy set the
// checkpoint is restored in the older format that also carries
// single-precision Adam moments.
func runCheckpointRoundTrip(t *testing.T, legacy bool) {
	t.Helper()
	cfg := DefaultConfig(6, 4)
	cfg.BatchSize = 16
	cfg.BufferCap = 256

	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReplay(orig, cfg, 64, 71)
	state := make([]float64, cfg.StateDim)
	for i := 0; i < 9; i++ {
		if _, err := orig.Act(state, true); err != nil {
			t.Fatal(err)
		}
		if loss := orig.Learn(); math.IsNaN(loss) {
			t.Fatalf("NaN loss at warmup step %d", i)
		}
	}

	blob, err := orig.StateBytes(true)
	if err != nil {
		t.Fatal(err)
	}
	if legacy {
		blob = legacyStateBlob(t, blob)
	}
	wantActor, err := orig.ActorBytes()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadStateBytes(blob); err != nil {
		t.Fatal(err)
	}
	gotActor, err := restored.ActorBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantActor, gotActor) {
		t.Fatal("restored ActorBytes differs from checkpoint")
	}
	if restored.LearnSteps() != orig.LearnSteps() {
		t.Fatalf("learn steps: restored %d, want %d", restored.LearnSteps(), orig.LearnSteps())
	}
	if restored.BufferLen() != orig.BufferLen() {
		t.Fatalf("buffer len: restored %d, want %d", restored.BufferLen(), orig.BufferLen())
	}

	// Both agents now walk the same future: exploration actions and
	// updates must track bit-for-bit.
	for i := 0; i < 6; i++ {
		aOrig, err := orig.Act(state, true)
		if err != nil {
			t.Fatal(err)
		}
		aRest, err := restored.Act(state, true)
		if err != nil {
			t.Fatal(err)
		}
		for j := range aOrig {
			if aOrig[j] != aRest[j] {
				t.Fatalf("step %d: explore action diverged: %v vs %v", i, aOrig, aRest)
			}
		}
		lOrig, lRest := orig.Learn(), restored.Learn()
		if lOrig != lRest {
			t.Fatalf("step %d: loss diverged: %v vs %v", i, lOrig, lRest)
		}
		wo, _ := orig.ActorBytes()
		wr, _ := restored.ActorBytes()
		if !bytes.Equal(wo, wr) {
			t.Fatalf("step %d: actor weights diverged after update", i)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) { runCheckpointRoundTrip(t, false) }

// TestCheckpointRoundTripLegacyAdamState: a checkpoint whose Adam
// state still carries the retired single-precision moments loads
// (gob skips the unknown fields) and restores the same future.
func TestCheckpointRoundTripLegacyAdamState(t *testing.T) { runCheckpointRoundTrip(t, true) }

// TestCheckpointConfigMismatch pins that a checkpoint cannot be
// restored into an agent built from a different Config.
func TestCheckpointConfigMismatch(t *testing.T) {
	a, err := New(DefaultConfig(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := a.StateBytes(false)
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(DefaultConfig(6, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadStateBytes(blob); err == nil {
		t.Fatal("restore into mismatched config succeeded, want error")
	}
}

// TestCheckpointRejectsDirtyReplay pins that a replay-bearing
// checkpoint refuses to restore over a buffer that already holds
// experience (silently merging would corrupt the sampling tree).
func TestCheckpointRejectsDirtyReplay(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReplay(a, cfg, 8, 3)
	blob, err := a.StateBytes(true)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReplay(dirty, cfg, 1, 4)
	if err := dirty.LoadStateBytes(blob); err == nil {
		t.Fatal("restore over non-empty replay succeeded, want error")
	}
}

// TestLoadAgentFromCheckpointAlone pins the serving-plane entry
// point: LoadAgent reconstructs an agent from the blob alone (the
// embedded Config builds it), skips the replay snapshot instead of
// requiring a matching buffer, and deploys the same policy — greedy
// actions identical to the saved agent's.
func TestLoadAgentFromCheckpointAlone(t *testing.T) {
	cfg := DefaultConfig(6, 4)
	cfg.BatchSize = 16
	cfg.BufferCap = 256
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillReplay(orig, cfg, 64, 71)
	state := make([]float64, cfg.StateDim)
	for i := 0; i < 5; i++ {
		if _, err := orig.Act(state, true); err != nil {
			t.Fatal(err)
		}
		orig.Learn()
	}
	// Replay included on purpose: LoadAgent must skip it, not demand a
	// buffer that fits it.
	blob, err := orig.StateBytes(true)
	if err != nil {
		t.Fatal(err)
	}

	served, err := LoadAgentBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if served.LearnSteps() != orig.LearnSteps() {
		t.Errorf("learn steps: served %d, want %d", served.LearnSteps(), orig.LearnSteps())
	}
	if served.BufferLen() != 0 {
		t.Errorf("served agent restored %d replay transitions, want 0", served.BufferLen())
	}
	for trial := 0; trial < 3; trial++ {
		for j := range state {
			state[j] = 0.01 * float64(trial*10+j)
		}
		want, err := orig.Act(state, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := served.Act(state, false)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("trial %d: greedy action diverged: %v vs %v", trial, got, want)
			}
		}
	}

	if _, err := LoadAgentBytes(blob[:len(blob)/2]); err == nil {
		t.Error("LoadAgent accepted a truncated checkpoint")
	}
}
