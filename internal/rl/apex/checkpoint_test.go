package apex

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"greennfv/internal/rl/ddpg"
	"greennfv/internal/rl/replay"
	"greennfv/internal/sla"
)

// checkpointTrainerConfig builds a small deterministic round-robin
// trainer configuration for checkpoint tests.
func checkpointTrainerConfig(t *testing.T, totalSteps int) TrainerConfig {
	t.Helper()
	cfg := DefaultTrainerConfig(totalSteps)
	cfg.Actors = 2
	cfg.WarmupSteps = 16
	cfg.EnvFactory = envFactory(sla.NewEnergyEfficiency())
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{12, 12}
	cfg.AgentConfig.BatchSize = 8
	cfg.AgentConfig.Seed = 5
	cfg.CheckpointReplay = true
	return cfg
}

// TestWriteReadCheckpoint pins the checkpoint file format round-trip
// and its corruption detection: bad magic, truncation and bit flips
// must all be rejected before any state is decoded.
func TestWriteReadCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	want := &TrainerCheckpoint{
		Agent: []byte{1, 2, 3, 4, 5}, Version: 7, Updates: 42,
		Pushes: 9, Received: 360, Steps: 100, TotalSteps: 500,
	}
	if err := WriteCheckpoint(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Agent, want.Agent) || got.Version != want.Version ||
		got.Updates != want.Updates || got.Received != want.Received ||
		got.Steps != want.Steps || got.TotalSteps != want.TotalSteps {
		t.Fatalf("round-trip mismatch: %+v != %+v", got, want)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bit flip inside the payload: CRC must catch it.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0x01
	bad := filepath.Join(t.TempDir(), "flipped")
	os.WriteFile(bad, flipped, 0o644)
	if _, err := ReadCheckpoint(bad); err == nil {
		t.Error("bit-flipped checkpoint read without error")
	}
	// Truncation.
	os.WriteFile(bad, raw[:len(raw)-3], 0o644)
	if _, err := ReadCheckpoint(bad); err == nil {
		t.Error("truncated checkpoint read without error")
	}
	// Foreign file.
	os.WriteFile(bad, []byte("not a checkpoint at all........"), 0o644)
	if _, err := ReadCheckpoint(bad); err == nil {
		t.Error("bad-magic file read without error")
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

// legacyAgentState mirrors the ddpg agent checkpoint blob with the
// legacy optimizer fields.
type legacyAgentState struct {
	Cfg                                      ddpg.Config
	Actor, Critic, ActorTarget, CriticTarget []byte
	ActorOpt, CriticOpt                      legacyAdamState
	NoiseState                               []float64
	NoiseSigma                               float64
	RNGDraws                                 uint64
	LearnSteps                               int
	Replay                                   *replay.PrioritizedState
	ShardedReplay                            *replay.ShardedState
}

// rewriteLegacyCheckpoint rewrites the GNFVCKP1 file at path so its
// agent blob carries non-empty legacy single-precision Adam moments,
// as a checkpoint written by an older trainer does.
func rewriteLegacyCheckpoint(t *testing.T, path string) {
	t.Helper()
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var st legacyAgentState
	if err := gob.NewDecoder(bytes.NewReader(ck.Agent)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, opt := range []*legacyAdamState{&st.ActorOpt, &st.CriticOpt} {
		opt.T32 = opt.T + 3
		for _, m := range opt.M {
			opt.M32 = append(opt.M32, append([]float64(nil), m...))
			opt.V32 = append(opt.V32, make([]float64, len(m)))
		}
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(&st); err != nil {
		t.Fatal(err)
	}
	ck.Agent = blob.Bytes()
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
}

// TestTrainerCheckpointResume is the checkpoint round-trip gate at the
// trainer level: train, checkpoint, restore into a freshly built
// trainer, and require bit-identical weights plus next-update parity
// (both learners step once more and must remain bit-identical — the
// optimizer moments, RNG stream and replay contents all survived).
func TestTrainerCheckpointResume(t *testing.T) { runTrainerCheckpointResume(t, false) }

// TestTrainerCheckpointResumeLegacyAdamState: a checkpoint file whose
// agent blob still carries the retired single-precision Adam moments
// reads through ReadCheckpoint and resumes the same future.
func TestTrainerCheckpointResumeLegacyAdamState(t *testing.T) {
	runTrainerCheckpointResume(t, true)
}

func runTrainerCheckpointResume(t *testing.T, legacy bool) {
	t.Helper()
	const total = 80
	cfg := checkpointTrainerConfig(t, total)
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trainer.ckpt")
	if err := tr.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	if legacy {
		rewriteLegacyCheckpoint(t, path)
	}
	wantBytes, err := tr.Learner().Agent().ActorBytes()
	if err != nil {
		t.Fatal(err)
	}

	tr2, err := NewTrainer(checkpointTrainerConfig(t, total))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Resume(path); err != nil {
		t.Fatal(err)
	}
	// The checkpoint was taken at steps == TotalSteps, so the resumed
	// run restores state and immediately completes.
	if err := tr2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tr2.ResumedUpdates(); got != tr.Learner().Agent().LearnSteps() {
		t.Errorf("ResumedUpdates = %d, want %d", got, tr.Learner().Agent().LearnSteps())
	}
	gotBytes, err := tr2.Learner().Agent().ActorBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatal("restored trainer weights differ from checkpoint")
	}
	if got, want := tr2.Learner().Agent().LearnSteps(), tr.Learner().Agent().LearnSteps(); got != want {
		t.Fatalf("restored learn steps %d, want %d", got, want)
	}

	// Next-update parity: one more update on each learner from the
	// restored replay must produce bit-identical weights.
	tr.Learner().LearnStep(1)
	tr2.Learner().LearnStep(1)
	a, _ := tr.Learner().Agent().ActorBytes()
	b, _ := tr2.Learner().Agent().ActorBytes()
	if !bytes.Equal(a, b) {
		t.Fatal("post-restore update diverged from the original learner")
	}
}

// TestResumeRejectsMissingAndMismatched pins Resume error handling: a
// missing file fails at Resume time, and a checkpoint from a
// different agent configuration fails at restore time.
func TestResumeRejectsMissingAndMismatched(t *testing.T) {
	cfg := checkpointTrainerConfig(t, 40)
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("Resume with a missing checkpoint did not error")
	}

	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck")
	if err := tr.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	other := checkpointTrainerConfig(t, 40)
	other.AgentConfig.Hidden = []int{8} // different topology
	tr2, err := NewTrainer(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Resume(path); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Run(); err == nil {
		t.Error("resume into a mismatched agent config did not error")
	}
}
