package apex

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"greennfv/internal/env"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/rl/replay"
)

// The concurrent training mode of Horgan et al. is a three-stage
// pipeline over the lock-striped replay buffer:
//
//	driver  ── batched act/step ── staging chunks ── AddBatch
//	sampler ── SampleInto ──▶ ready channel ──▶ learner (LearnBatch)
//
// The acting half lives here and in vecactor.go: ONE driver goroutine
// steps all actors through a VecEnv with a single batched policy pass
// per step, replacing the per-actor goroutines (and their scalar
// forwards, atomic ticket counter and fairness yields) of the earlier
// design. The sampler/learner half is prefetch.go. The learner never
// touches a replay mutex actors contend on.

// defaultReplayShards sizes the lock stripes to the parallelism
// actually available, clamped to keep per-shard capacity useful.
func defaultReplayShards() int {
	shards := runtime.GOMAXPROCS(0)
	if shards < 2 {
		shards = 2
	}
	if shards > 16 {
		shards = 16
	}
	return shards
}

// installShardedReplay swaps the agent's replay for the lock-striped
// buffer while it is still empty, so concurrent ingest and sampling
// contend on shard locks, never on one global mutex. Shared by the
// parallel and remote modes (both take concurrent pushes).
func (t *Trainer) installShardedReplay(agent *ddpg.Agent) error {
	if agent.BufferLen() != 0 {
		return nil
	}
	acfg := agent.Config()
	shards := t.cfg.ReplayShards
	if shards <= 0 {
		shards = defaultReplayShards()
	}
	sharded, err := replay.NewSharded(acfg.BufferCap, shards,
		acfg.PERAlpha, acfg.PERBeta, acfg.PERBetaInc, acfg.Seed)
	if err != nil {
		return fmt.Errorf("apex: sharded replay: %w", err)
	}
	if err := agent.SetReplay(sharded); err != nil {
		return fmt.Errorf("apex: sharded replay: %w", err)
	}
	return nil
}

// runParallel executes the pipeline: the VecActor driver steps every
// actor environment with one batched policy pass per step and
// exchanges experience/parameters with the learner, while the sampler
// prefetches minibatches and the learner drains the same update budget
// the round-robin mode would spend. Wall-clock time approaches
// max(actor time, learner time) instead of their sum.
//
// The run is NOT deterministic: the learner's sampling interleaves
// with acting on the scheduler's terms. Figure-quality reproducible
// runs use round-robin mode.
func (t *Trainer) runParallel() error {
	agent := t.learner.Agent()
	acfg := agent.Config()
	batch := acfg.BatchSize

	if err := t.installShardedReplay(agent); err != nil {
		return err
	}
	// Restore checkpoint state only after the replay implementation
	// matches the one that wrote it.
	if err := t.applyResume(); err != nil {
		return err
	}

	// Build the batched driver over the round-robin actors' resources:
	// their environments back the VecEnv, actor 0's agent becomes the
	// shared policy, and each actor's config ladder (rung sigma,
	// private seed) becomes a VecActor noise lane.
	n := len(t.actors)
	envs := make([]*env.Env, n)
	ladder := make([]ddpg.Config, n)
	for i, a := range t.actors {
		se, ok := a.Env().(*env.Env)
		if !ok {
			// VecEnv vectorizes the single-node env's fixed layout;
			// cluster environments train through the deterministic
			// round-robin path instead.
			return fmt.Errorf("apex: Parallel requires single-node environments, actor %d has %T", i, a.Env())
		}
		envs[i] = se
		ladder[i] = a.agent.Config()
	}
	// workers=1: per-env steps are microseconds of arithmetic, so the
	// inline single-worker path beats paying pool dispatch per round —
	// and the spare cores belong to the learner pipeline anyway.
	vec, err := env.NewVecEnv(envs, 1)
	if err != nil {
		return err
	}
	vec.Reset(acfg.Seed)
	vagent := t.actors[0].agent
	va := newVecActor(vagent, vec, noiseLadder(acfg.ActionDim, ladder),
		t.cfg.PushEvery, t.cfg.SyncEvery)

	var stop atomic.Bool
	var firstErr error
	total := t.cfg.TotalSteps
	rounds, rem := total/n, total%n

	// warmReady closes once warmup has passed AND the replay holds at
	// least one batch: the gate that lets the sampler spend the update
	// budget on real gradient steps, not no-op draws from an
	// under-filled buffer.
	warmReady := make(chan struct{})
	actorsDone := make(chan struct{})

	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		warmed := false
		lastSnap := 0
		for r := 0; r < rounds && !stop.Load(); r++ {
			reward0, info0, err := va.StepRound(t.learner)
			if err != nil {
				firstErr = fmt.Errorf("apex: vec actor: %w", err)
				stop.Store(true)
				return
			}
			steps := va.Steps()
			if !warmed && steps > t.cfg.WarmupSteps && agent.BufferLen() >= batch {
				warmed = true
				close(warmReady)
			}
			if t.cfg.SnapshotEvery > 0 && steps >= lastSnap+t.cfg.SnapshotEvery {
				lastSnap = steps - steps%t.cfg.SnapshotEvery
				t.Snapshots = append(t.Snapshots, SnapshotOf(steps, vec.Env(0), info0, reward0))
			}
		}
		if rem > 0 && !stop.Load() {
			if err := va.StepRemainder(t.learner, rem); err != nil {
				firstErr = fmt.Errorf("apex: vec actor: %w", err)
				stop.Store(true)
				return
			}
		}
		// Final flush so a tail shorter than PushEvery is not lost.
		if err := va.Flush(t.learner); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("apex: vec actor: %w", err)
			stop.Store(true)
		}
	}()

	learnerDone := t.startLearnerPipeline(agent, batch,
		t.cfg.LearnPerStep*(t.cfg.TotalSteps-t.cfg.WarmupSteps),
		&stop, warmReady, actorsDone)

	<-driverDone
	close(actorsDone)
	<-learnerDone

	// Attribute steps back to the per-actor records: a full round gives
	// every lane one step; the remainder went to the lowest lanes.
	done := va.Steps()
	q, r := done/n, done%n
	for i, a := range t.actors {
		a.steps = q
		if i < r {
			a.steps++
		}
	}
	t.steps = done
	return firstErr
}
