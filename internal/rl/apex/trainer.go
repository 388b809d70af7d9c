package apex

import (
	"errors"
	"fmt"
	"time"

	"greennfv/internal/atomicio"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/ddpg"
)

// Snapshot is one point of a training-progress curve — the quantities
// the paper plots in Figures 6–8: achieved throughput, energy,
// efficiency, and the knob trajectory (CPU usage, core frequency,
// LLC allocation, DMA buffer size, batch size).
type Snapshot struct {
	Episode        int
	ThroughputGbps float64
	EnergyJ        float64
	Efficiency     float64
	Reward         float64
	CPUPercent     float64
	FreqGHz        float64
	LLCPercent     float64
	DMAMB          float64
	Batch          float64
}

// SnapshotOf summarizes an environment's current knobs and result.
func SnapshotOf(episode int, e env.Stepper, res perfmodel.Result, reward float64) Snapshot {
	ks := e.Knobs()
	var freq, llc, dma, batch float64
	for _, k := range ks {
		freq += k.FreqGHz
		llc += k.LLCFraction
		dma += float64(k.DMABytes)
		batch += float64(k.Batch)
	}
	n := float64(len(ks))
	return Snapshot{
		Episode:        episode,
		ThroughputGbps: res.ThroughputGbps,
		EnergyJ:        res.EnergyJoules,
		Efficiency:     res.Efficiency,
		Reward:         reward,
		CPUPercent:     res.CPUPercent,
		FreqGHz:        freq / n,
		LLCPercent:     llc / n * 100,
		DMAMB:          dma / n / (1 << 20),
		Batch:          batch / n,
	}
}

// TrainerConfig sizes a training run.
type TrainerConfig struct {
	// Actors is the worker count (the paper distributes actors over
	// the cluster; in-process they interleave round-robin for
	// determinism).
	Actors int
	// TotalSteps is the total environment steps across all actors
	// (the paper's "episodes").
	TotalSteps int
	// LearnPerStep is how many learner updates run per actor step.
	LearnPerStep int
	// WarmupSteps delays learning until the replay has data.
	WarmupSteps int
	// PushEvery / SyncEvery configure the actors.
	PushEvery, SyncEvery int
	// VersionEvery bumps the broadcast parameter version every N
	// learner updates.
	VersionEvery int
	// SnapshotEvery records a training-progress snapshot every N
	// steps (the paper samples every 2000 episodes).
	SnapshotEvery int
	// BaseSigma is actor 0's OU noise; each additional actor gets
	// progressively more exploration (Ape-X's per-actor epsilon).
	BaseSigma float64
	// SamplesPerInsert, when positive, caps how far the learner may run
	// ahead of the actors in the asynchronous modes (Parallel, remote):
	// at most SamplesPerInsert replay samples are consumed per inserted
	// transition, so a fast learner blocks for fresh experience instead
	// of replaying a stale buffer (the ratio knob of Reverb-style
	// samplers). Zero (the default) disables pacing and the update
	// budget is spent exactly; the deterministic round-robin mode
	// ignores it — its learn cadence is fixed by LearnPerStep.
	SamplesPerInsert float64
	// Parallel selects truly concurrent training — actor goroutines
	// stepping their own environments while a sampler/learner pipeline
	// runs batched updates over a lock-striped replay, the
	// architecture of Horgan et al. — instead of the deterministic
	// round-robin interleaving. Round-robin remains the default: it is
	// reproducible, which tests and recorded figures rely on.
	Parallel bool
	// ReplayShards sets the lock-stripe count of the parallel mode's
	// sharded replay buffer (0 = GOMAXPROCS, clamped to [2, 16]).
	// Ignored by the deterministic round-robin mode, which keeps the
	// single-tree buffer.
	ReplayShards int
	// RemoteActors selects the multi-process mode (the paper's
	// six-node deployment): the trainer serves the learner over
	// net/rpc and RemoteActors actor processes connect as RPC
	// clients, each with its own environment and exploration
	// intensity. Actors/EnvFactory/Parallel are ignored; RemoteSpec
	// is required. Like Parallel, the run is not deterministic; the
	// figure harness keeps round-robin.
	RemoteActors int
	// SpawnRemote, when non-empty, is the argv prefix the trainer
	// execs to launch each actor process (typically the cmd/apexactor
	// binary). The trainer appends "-learner ADDR -rank R -steps N"
	// and writes the normalized RemoteSpec JSON to the child's stdin.
	// Empty means actors are launched externally (multi-machine
	// deployments) and connect to ListenAddr themselves.
	SpawnRemote []string
	// ListenAddr is the learner's RPC bind address in remote mode
	// ("" = 127.0.0.1 on an ephemeral port, the right choice when
	// SpawnRemote runs actors on this host).
	ListenAddr string
	// RemoteSpec tells remote actor processes how to rebuild the
	// environment and local network; the trainer normalizes cadence,
	// network shape and seeds from this config before serving it.
	RemoteSpec *ActorSpec
	// AdvertiseAddr, when non-empty, is the learner address handed to
	// spawned actor processes instead of the actual listen address —
	// the hook that routes actor traffic through a proxy (the chaos
	// tests put a faultrpc.FaultProxy here). External fleets ignore
	// it; they dial whatever they were configured with.
	AdvertiseAddr string
	// CheckpointPath, when non-empty, makes the remote mode write an
	// atomic training checkpoint (see WriteCheckpoint) every
	// CheckpointEvery learner updates and again after drain, so a
	// killed trainer resumes mid-budget via Resume. CheckpointReplay
	// additionally snapshots the replay buffer into each checkpoint —
	// required for bit-exact update parity after restore, at the cost
	// of checkpoint size.
	CheckpointPath   string
	CheckpointEvery  int
	CheckpointReplay bool
	// MaxActorRestarts bounds how many times the trainer respawns one
	// crashed spawned-actor rank (original sigma/seed ladder rung,
	// jittered exponential backoff). Zero disables supervision: a
	// crashed rank stays down, as before.
	MaxActorRestarts int
	// ActorRestartBackoff is the initial respawn delay, doubling per
	// restart of the same rank (default 250ms when zero).
	ActorRestartBackoff time.Duration
	// DrainTimeout bounds how long drain waits for a spawned fleet
	// after the last push heartbeat before killing the stragglers, so
	// a wedged actor cannot hang the round forever. Zero waits
	// indefinitely (the pre-supervision behavior).
	DrainTimeout time.Duration
	// EnvFactory builds one environment per actor (distinct seeds).
	EnvFactory func(actorID int) (*env.Env, error)
	// StepperFactory is EnvFactory's generalization for environments
	// that are not the single-node *env.Env (the multi-node
	// ClusterEnv). Used only when EnvFactory is nil; remote mode and
	// Parallel require single-node EnvFactory environments, so
	// stepper-built trainers run the deterministic round-robin path.
	StepperFactory func(actorID int) (env.Stepper, error)
	// AgentConfig templates the learner and actor networks; state
	// and action dims are filled from the environment.
	AgentConfig ddpg.Config
}

// DefaultTrainerConfig returns a configuration matched to the
// GreenNFV environment: small networks, four actors, snapshot
// cadence proportional to run length.
func DefaultTrainerConfig(totalSteps int) TrainerConfig {
	snap := totalSteps / 40
	if snap < 1 {
		snap = 1
	}
	return TrainerConfig{
		Actors:        4,
		TotalSteps:    totalSteps,
		LearnPerStep:  1,
		WarmupSteps:   64,
		PushEvery:     8,
		SyncEvery:     16,
		VersionEvery:  8,
		SnapshotEvery: snap,
		BaseSigma:     0.3,
		// Supervision default: a crashed actor rank gets two respawns
		// before the round is declared failed.
		MaxActorRestarts:    2,
		ActorRestartBackoff: 250 * time.Millisecond,
	}
}

// Trainer orchestrates an Ape-X run: in-process actors (round-robin
// or Parallel) or remote actor processes (RemoteActors).
type Trainer struct {
	cfg     TrainerConfig
	learner *Learner
	actors  []*Actor
	// Snapshots is the recorded training curve. Remote mode records
	// none: actor environments live in other processes.
	Snapshots   []Snapshot
	steps       int
	remoteStats map[int]ActorStats
	// Checkpoint/resume state (checkpoint.go).
	resumePath     string
	resumedUpdates int
}

// NewTrainer wires the learner and actors.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	remote := cfg.RemoteActors > 0
	if !remote && cfg.Actors <= 0 {
		return nil, errors.New("apex: need at least one actor")
	}
	if cfg.TotalSteps <= 0 {
		return nil, errors.New("apex: TotalSteps must be positive")
	}
	if remote {
		if cfg.RemoteSpec == nil {
			return nil, errors.New("apex: remote mode needs a RemoteSpec")
		}
		// The spec is the single source of truth in remote mode: the
		// learner's dimension probe must come from the same env
		// construction the actor processes will use, or the learner
		// and actor network shapes could silently diverge. Any
		// caller-supplied EnvFactory is ignored, as documented.
		cfg.EnvFactory = cfg.RemoteSpec.EnvFactory()
	}
	factory := cfg.StepperFactory
	if cfg.EnvFactory != nil {
		ef := cfg.EnvFactory
		factory = func(actorID int) (env.Stepper, error) { return ef(actorID) }
	}
	if factory == nil {
		return nil, errors.New("apex: need an environment factory")
	}
	probe, err := factory(0)
	if err != nil {
		return nil, err
	}
	agentCfg := cfg.AgentConfig
	agentCfg.StateDim = probe.StateDim()
	agentCfg.ActionDim = probe.ActionDim()
	agentCfg.Prioritized = true
	learnerAgent, err := ddpg.New(agentCfg)
	if err != nil {
		return nil, err
	}
	learner, err := NewLearner(learnerAgent)
	if err != nil {
		return nil, err
	}
	t := &Trainer{cfg: cfg, learner: learner, resumedUpdates: -1}
	if remote {
		// Normalize a private copy of the spec so actor processes
		// reconstruct networks and cadence that match this learner.
		spec := *cfg.RemoteSpec
		normalizeSpec(&spec, t.cfg, agentCfg)
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		t.cfg.RemoteSpec = &spec
		return t, nil
	}
	for i := 0; i < cfg.Actors; i++ {
		e := probe
		if i > 0 {
			e, err = factory(i)
			if err != nil {
				return nil, err
			}
		}
		aCfg := agentCfg
		aCfg.Seed = agentCfg.Seed + int64(i)*101
		// Ape-X exploration ladder: later actors explore harder.
		aCfg.OUSigma = cfg.BaseSigma * (1 + 0.5*float64(i))
		aCfg.NoiseDecay = agentCfg.NoiseDecay
		actor, err := NewActor(ActorConfig{
			ID: i, Env: e, AgentConfig: aCfg,
			PushEvery: cfg.PushEvery, SyncEvery: cfg.SyncEvery,
		})
		if err != nil {
			return nil, err
		}
		t.actors = append(t.actors, actor)
	}
	return t, nil
}

// Learner exposes the central learner.
func (t *Trainer) Learner() *Learner { return t.learner }

// Actors exposes the actor pool.
func (t *Trainer) Actors() []*Actor { return t.actors }

// Run executes the configured number of steps: deterministic
// round-robin (default, snapshots from actor 0), truly concurrent
// in-process (cfg.Parallel), or multi-process over net/rpc
// (cfg.RemoteActors).
func (t *Trainer) Run() error {
	if t.cfg.CheckpointPath != "" {
		// A previous run killed mid-write may have left checkpoint temp
		// files behind; the atomic rename protocol makes them garbage by
		// construction, so clear them before producing new ones.
		if _, err := atomicio.Sweep(t.cfg.CheckpointPath); err != nil {
			return fmt.Errorf("apex: sweep checkpoint temps: %w", err)
		}
	}
	if t.cfg.RemoteActors > 0 {
		return t.runRemote()
	}
	if t.cfg.Parallel {
		return t.runParallel()
	}
	return t.runRoundRobin()
}

// RemoteActorStats returns the learner-side per-actor records of the
// last remote run (rank → stats); nil for in-process runs.
func (t *Trainer) RemoteActorStats() map[int]ActorStats { return t.remoteStats }

// runRoundRobin interleaves actors single-threaded — deterministic,
// which suits both tests and the figure harness.
func (t *Trainer) runRoundRobin() error {
	if err := t.applyResume(); err != nil {
		return err
	}
	var last0 perfmodel.Result
	var lastR0 float64
	have0 := false
	for t.steps < t.cfg.TotalSteps {
		for _, actor := range t.actors {
			if t.steps >= t.cfg.TotalSteps {
				break
			}
			reward, info, err := actor.Step(t.learner)
			if err != nil {
				return fmt.Errorf("apex: actor %d: %w", actor.ID, err)
			}
			if actor.ID == 0 {
				last0, lastR0, have0 = info, reward, true
			}
			t.steps++
			if t.steps > t.cfg.WarmupSteps {
				for l := 0; l < t.cfg.LearnPerStep; l++ {
					t.learner.LearnStep(t.cfg.VersionEvery)
				}
			}
			if have0 && t.cfg.SnapshotEvery > 0 && t.steps%t.cfg.SnapshotEvery == 0 {
				t.Snapshots = append(t.Snapshots,
					SnapshotOf(t.steps, t.actors[0].Env(), last0, lastR0))
			}
		}
	}
	return nil
}

// GreedyEval runs the learned deterministic policy on a fresh
// environment for a few settling steps and returns the final
// measurement — the paper's periodic "testing" of the trained model.
func (t *Trainer) GreedyEval(e env.Stepper, settle int) (perfmodel.Result, error) {
	if settle < 1 {
		settle = 1
	}
	state := e.Reset(9999)
	var last perfmodel.Result
	for i := 0; i < settle; i++ {
		action := t.learner.Agent().Greedy(state)
		next, _, info, err := e.Step(action)
		if err != nil {
			return perfmodel.Result{}, err
		}
		state = next
		last = info
	}
	return last, nil
}
