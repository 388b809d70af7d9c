package apex

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// buildActorBinary compiles cmd/apexactor once per test binary run.
// The children are plain (non-race) builds; the race detector checks
// the trainer process, which is where all shared state lives.
func buildActorBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "apexactor")
	cmd := exec.Command("go", "build", "-o", bin, "greennfv/cmd/apexactor")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Skipf("cannot build apexactor (no toolchain?): %v\n%s", err, out)
	}
	return bin
}

// testSpec is the shared environment description for remote tests.
func testSpec() *ActorSpec {
	return &ActorSpec{
		SLA:        sla.NewEnergyEfficiency(),
		LoadJitter: 0.05,
		EnvSeed:    1000,
	}
}

// TestRemoteTrainingRound runs a real 2-process-actor training round
// end-to-end (meaningful under -race): the trainer serves the learner
// over net/rpc, spawns two apexactor subprocesses, and must see the
// full experience budget arrive over RPC, the parameter version
// propagate to both actors, and a clean shutdown.
func TestRemoteTrainingRound(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	bin := buildActorBinary(t)

	const total = 240
	cfg := DefaultTrainerConfig(total)
	cfg.RemoteActors = 2
	// -verifyprio makes each actor process cross-check every batched
	// TD-error priority against the scalar path and exit nonzero on any
	// bit difference, so this round also proves the batched priority
	// computation is bit-for-bit across processes.
	cfg.SpawnRemote = []string{bin, "-q", "-verifyprio"}
	cfg.RemoteSpec = testSpec()
	cfg.WarmupSteps = 32
	cfg.VersionEvery = 4
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{24, 24}
	cfg.AgentConfig.BatchSize = 16
	cfg.AgentConfig.Seed = 11

	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tr.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("remote training round did not finish")
	}

	// Experience counts: every environment step of both actors must
	// have arrived over RPC (Flush ships partial chunks).
	pushes, transitions := tr.Learner().Stats()
	if transitions != total {
		t.Errorf("learner received %d transitions over RPC, want %d", transitions, total)
	}
	if pushes == 0 {
		t.Error("no pushes recorded")
	}

	// Both ranks registered, pushed, and saw a broadcast parameter
	// version newer than the initial one.
	stats := tr.RemoteActorStats()
	if len(stats) != 2 {
		t.Fatalf("learner saw %d actors, want 2 (%+v)", len(stats), stats)
	}
	for rank := 0; rank < 2; rank++ {
		st, ok := stats[rank]
		if !ok {
			t.Fatalf("rank %d never registered (%+v)", rank, stats)
		}
		if !st.Registered {
			t.Errorf("rank %d pushed without registering", rank)
		}
		if st.Transitions != total/2 {
			t.Errorf("rank %d pushed %d transitions, want %d", rank, st.Transitions, total/2)
		}
		if st.LastVersion <= 1 {
			t.Errorf("rank %d never reported an updated param version (last %d)", rank, st.LastVersion)
		}
	}

	// The learner spent its full round-robin-equivalent budget.
	wantUpdates := cfg.LearnPerStep * (total - cfg.WarmupSteps)
	if got := tr.Learner().Agent().LearnSteps(); got != wantUpdates {
		t.Errorf("learner ran %d updates, want %d", got, wantUpdates)
	}
	if tr.steps != total {
		t.Errorf("trainer recorded %d steps, want %d", tr.steps, total)
	}
}

// TestRemoteTrainerValidation pins the remote-mode constructor
// contract: a spec is required, and its normalized copy must match
// the learner's network shape and the trainer's cadence.
func TestRemoteTrainerValidation(t *testing.T) {
	cfg := DefaultTrainerConfig(100)
	cfg.RemoteActors = 2
	if _, err := NewTrainer(cfg); err == nil {
		t.Error("remote mode without RemoteSpec did not error")
	}

	cfg.RemoteSpec = testSpec()
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{24, 24}
	cfg.AgentConfig.Seed = 3
	cfg.AgentConfig.Gamma = 0.99 // non-default: must reach remote actors
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := tr.cfg.RemoteSpec
	if got, want := spec.Agent.Hidden, cfg.AgentConfig.Hidden; len(got) != len(want) || got[0] != want[0] {
		t.Errorf("normalized spec Hidden = %v, want learner's %v", got, want)
	}
	if spec.PushEvery != cfg.PushEvery || spec.SyncEvery != cfg.SyncEvery {
		t.Errorf("normalized cadence %d/%d, want %d/%d",
			spec.PushEvery, spec.SyncEvery, cfg.PushEvery, cfg.SyncEvery)
	}
	if spec.Agent.Seed != cfg.AgentConfig.Seed {
		t.Errorf("normalized agent seed = %d, want %d", spec.Agent.Seed, cfg.AgentConfig.Seed)
	}
	if spec.Agent.Gamma != 0.99 {
		t.Errorf("normalized agent Gamma = %v, want the learner's 0.99 (hyperparameters must not silently reset to defaults)", spec.Agent.Gamma)
	}
	// The caller's spec must not be mutated.
	if cfg.RemoteSpec.PushEvery != 0 {
		t.Error("normalization mutated the caller's spec")
	}
}

// TestRetryBackoffCap pins the fix for the uncapped redial backoff:
// the per-attempt sleep doubles from Backoff but never exceeds
// MaxBackoff (2s default), so a user-raised MaxRetries against a
// flapping learner cannot stall an actor for minutes, and the
// doubling cannot overflow for any attempt count.
func TestRetryBackoffCap(t *testing.T) {
	r := NewRemoteLearner("127.0.0.1:1", 0)
	if r.MaxBackoff != 2*time.Second {
		t.Errorf("default MaxBackoff = %v, want 2s", r.MaxBackoff)
	}
	r.Backoff = 50 * time.Millisecond
	r.MaxBackoff = 400 * time.Millisecond
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 400 * time.Millisecond, 400 * time.Millisecond,
	}
	for attempt, w := range want {
		if got := r.backoffFor(attempt); got != w {
			t.Errorf("backoffFor(%d) = %v, want %v", attempt, got, w)
		}
	}
	// A huge attempt count must neither overflow nor exceed the cap
	// (the old doubling would have overflowed past attempt 62).
	if got := r.backoffFor(100); got != r.MaxBackoff {
		t.Errorf("backoffFor(100) = %v, want %v", got, r.MaxBackoff)
	}
	// An unset cap falls back to the 2s default rather than uncapped.
	r.MaxBackoff = 0
	if got := r.backoffFor(100); got != 2*time.Second {
		t.Errorf("backoffFor with zero MaxBackoff = %v, want 2s", got)
	}
}

// TestNoRetryAfterDrain: once the learner has signalled drain, a
// transport failure is final — the actor must not burn its full
// backoff schedule against a learner that has already ended the
// round. Regression test for the drain-then-stall case: the old code
// retried MaxRetries times (seconds of sleep) before letting the
// actor exit.
func TestNoRetryAfterDrain(t *testing.T) {
	srv, err := Serve(rpcLearner(t), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Service().BeginDrain()

	r := NewRemoteLearner(srv.Addr(), 3)
	defer r.Close()
	r.MaxRetries = 10
	r.Backoff = 200 * time.Millisecond
	// The drain reply is still delivered with the accepted batch.
	if err := r.PushExperience([]Experience{{Priority: 1}}); err != nil {
		t.Fatal(err)
	}
	if !r.Draining() {
		t.Fatal("drain signal not latched from push reply")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = r.PushExperience([]Experience{{Priority: 1}})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("push to a closed learner succeeded")
	}
	if !strings.Contains(err.Error(), "draining") {
		t.Errorf("error does not mention the drain short-circuit: %v", err)
	}
	// One attempt, no backoff sleeps: far under even a single 200ms
	// retry delay.
	if elapsed >= 150*time.Millisecond {
		t.Errorf("drained call took %v, want an immediate failure (retries not skipped?)", elapsed)
	}
}

// TestActorSpecRoundTrip pins the JSON contract: a spec survives
// encode/decode and builds rank-laddered agents.
func TestActorSpecRoundTrip(t *testing.T) {
	spec := testSpec()
	spec.Chain = "light"
	spec.Agent = ddpg.DefaultConfig(0, 0)
	spec.Agent.Hidden = []int{16}
	spec.Agent.Gamma = 0.9
	spec.BaseSigma = 0.2
	spec.PushEvery, spec.SyncEvery = 4, 8
	spec.Steps = 50

	var buf strings.Builder
	if err := spec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeActorSpec(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Chain != "light" || got.Steps != 50 || got.SLA.Kind != sla.EnergyEfficiency {
		t.Errorf("round-trip mismatch: %+v", got)
	}

	e, err := got.BuildEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	a0 := got.agentConfig(e.StateDim(), e.ActionDim(), 0)
	a2 := got.agentConfig(e.StateDim(), e.ActionDim(), 2)
	if a0.OUSigma != 0.2 || a2.OUSigma != 0.2*2 {
		t.Errorf("exploration ladder broken: rank0 %v rank2 %v", a0.OUSigma, a2.OUSigma)
	}
	if a2.Seed != a0.Seed+202 {
		t.Errorf("seed ladder broken: rank0 %d rank2 %d", a0.Seed, a2.Seed)
	}
	if a0.Gamma != 0.9 || a2.Gamma != 0.9 {
		t.Errorf("agent template not honored: gammas %v/%v, want 0.9", a0.Gamma, a2.Gamma)
	}

	if _, err := DecodeActorSpec(strings.NewReader(`{"chain":"bogus","push_every":1,"sync_every":1}`)); err == nil {
		t.Error("bogus chain decoded without error")
	}
}
