package control

import (
	"errors"
	"fmt"
	"io"

	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// GreenNFV is the paper's controller: a DDPG policy trained with the
// Ape-X distributed prioritized-replay architecture, deployed
// greedily at control time, on the poll/callback platform with NF
// sleeping.
type GreenNFV struct {
	slaSpec sla.SLA
	// TrainSteps is the training budget ("episodes").
	TrainSteps int
	// Actors is the Ape-X worker count.
	Actors int
	// Seed fixes training randomness.
	Seed int64
	// Parallel trains with concurrent actor goroutines and the
	// prefetching learner pipeline instead of the deterministic
	// round-robin interleaving (see apex.TrainerConfig).
	Parallel bool
	// ReplayShards overrides the parallel mode's replay lock-stripe
	// count (0 = auto).
	ReplayShards int
	// SamplesPerInsert caps replay samples consumed per transition
	// inserted in the asynchronous modes (0 = unpaced). See
	// apex.TrainerConfig.SamplesPerInsert.
	SamplesPerInsert float64
	// RemoteActors > 0 trains with actor processes over net/rpc (the
	// paper's six-node topology) instead of in-process actors;
	// RemoteSpec must describe the actors' environment. See
	// apex.TrainerConfig.
	RemoteActors int
	// SpawnRemote is the argv prefix that launches each actor process
	// (empty = actors connect externally to ListenAddr).
	SpawnRemote []string
	// ListenAddr is the learner's RPC bind address in remote mode.
	ListenAddr string
	// RemoteSpec tells remote actors how to rebuild the environment.
	RemoteSpec *apex.ActorSpec
	// CheckpointPath, when set, makes the trainer write its full
	// training state there atomically — every CheckpointEvery learner
	// updates in remote mode, and again when training completes. See
	// apex.Trainer.Checkpoint.
	CheckpointPath string
	// CheckpointEvery is the update interval between checkpoints
	// (<= 0: only the completion checkpoint is written).
	CheckpointEvery int
	// CheckpointReplay includes replay-buffer contents in checkpoints,
	// making a resumed run's updates bit-exact at the cost of much
	// larger files.
	CheckpointReplay bool
	// ResumePath, when set, restores training state from that
	// checkpoint before stepping, so a killed training run continues
	// mid-budget instead of starting over. The configuration must
	// match the run that wrote the checkpoint.
	ResumePath string

	trainer *apex.Trainer
	// agent is the deployed policy network: the learner's agent
	// after Prepare, or a loaded agent after LoadActor.
	agent *ddpg.Agent
	state []float64
}

// NewGreenNFV builds the controller for one SLA.
func NewGreenNFV(s sla.SLA, trainSteps, actors int, seed int64) *GreenNFV {
	return &GreenNFV{slaSpec: s, TrainSteps: trainSteps, Actors: actors, Seed: seed}
}

// Name implements Controller.
func (g *GreenNFV) Name() string {
	switch g.slaSpec.Kind {
	case sla.MaxThroughput:
		return "GreenNFV(MaxT)"
	case sla.MinEnergy:
		return "GreenNFV(MinE)"
	default:
		return "GreenNFV(EE)"
	}
}

// Options implements Controller: the GreenNFV platform (zero value:
// poll/callback mix, deep C-states).
func (g *GreenNFV) Options() perfmodel.EvalOptions { return perfmodel.EvalOptions{} }

// Prepare implements Controller: run Ape-X training.
func (g *GreenNFV) Prepare(factory EnvFactory) error {
	if factory == nil {
		return errors.New("control: GreenNFV needs an environment factory")
	}
	cfg := apex.DefaultTrainerConfig(g.TrainSteps)
	if g.Actors > 0 {
		cfg.Actors = g.Actors
	}
	cfg.Parallel = g.Parallel
	cfg.ReplayShards = g.ReplayShards
	cfg.SamplesPerInsert = g.SamplesPerInsert
	cfg.RemoteActors = g.RemoteActors
	cfg.SpawnRemote = g.SpawnRemote
	cfg.ListenAddr = g.ListenAddr
	cfg.RemoteSpec = g.RemoteSpec
	cfg.CheckpointPath = g.CheckpointPath
	cfg.CheckpointEvery = g.CheckpointEvery
	cfg.CheckpointReplay = g.CheckpointReplay
	cfg.EnvFactory = func(actorID int) (*env.Env, error) {
		return factory(g.Seed+int64(actorID)*131, g.Options())
	}
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Seed = g.Seed
	trainer, err := apex.NewTrainer(cfg)
	if err != nil {
		return err
	}
	if g.ResumePath != "" {
		if err := trainer.Resume(g.ResumePath); err != nil {
			return err
		}
	}
	if err := trainer.Run(); err != nil {
		return fmt.Errorf("control: GreenNFV training: %w", err)
	}
	// The remote mode checkpoints on completion itself; the in-process
	// modes leave it to us.
	if g.CheckpointPath != "" && g.RemoteActors == 0 {
		if err := trainer.Checkpoint(g.CheckpointPath); err != nil {
			return fmt.Errorf("control: GreenNFV checkpoint: %w", err)
		}
	}
	g.trainer = trainer
	g.agent = trainer.Learner().Agent()
	return nil
}

// SaveActor serializes the deployed policy network. The checkpoint
// is what the paper amortizes: "the model needs to be trained only
// once before deployment and is run many times".
func (g *GreenNFV) SaveActor(w io.Writer) error {
	if g.agent == nil {
		return errors.New("control: GreenNFV has no trained policy")
	}
	data, err := g.agent.ActorBytes()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// SavePolicyState writes the deployed policy's full agent state — the
// ddpg checkpoint format the serving plane (internal/serve,
// cmd/greennfvd) loads and validates, replay buffer excluded.
func (g *GreenNFV) SavePolicyState(w io.Writer) error {
	if g.agent == nil {
		return errors.New("control: GreenNFV has no trained policy")
	}
	return g.agent.SaveState(w, false)
}

// NewGreenNFVFromAgent builds a deploy-only controller around an
// already-loaded agent (no trainer, no further learning).
func NewGreenNFVFromAgent(s sla.SLA, agent *ddpg.Agent) *GreenNFV {
	return &GreenNFV{slaSpec: s, agent: agent}
}

// NewGreenNFVFromActor builds a deploy-only controller from a saved
// actor checkpoint (no trainer, no further learning).
func NewGreenNFVFromActor(s sla.SLA, stateDim, actionDim int, r io.Reader) (*GreenNFV, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	cfg := ddpg.DefaultConfig(stateDim, actionDim)
	agent, err := ddpg.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := agent.LoadActorBytes(data); err != nil {
		return nil, fmt.Errorf("control: load actor: %w", err)
	}
	return &GreenNFV{slaSpec: s, agent: agent}, nil
}

// Trainer exposes the underlying trainer (for training-curve
// figures).
func (g *GreenNFV) Trainer() *apex.Trainer { return g.trainer }

// Step implements Controller: greedy policy action.
func (g *GreenNFV) Step(e *env.Env) (perfmodel.Result, error) {
	if g.agent == nil {
		return perfmodel.Result{}, errors.New("control: GreenNFV not prepared")
	}
	if g.state == nil || len(g.state) != e.StateDim() {
		g.state = e.Reset(g.Seed + 7777)
	}
	action := g.agent.Greedy(g.state)
	next, _, info, err := e.Step(action)
	if err != nil {
		return perfmodel.Result{}, err
	}
	g.state = next
	return info, nil
}
