package ddpg

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"reflect"

	"greennfv/internal/nn"
	"greennfv/internal/rl/replay"
)

// Full-agent checkpoint/restore. A DDPG agent's training state is more
// than its four networks: the Adam moment estimates, the OU
// exploration-noise vector and annealed sigma, the RNG stream
// position, the learn-step counter and (optionally) the replay buffer
// all feed the next update. SaveState captures every piece so that a
// restored agent's next Learn is bit-identical to the update an
// uninterrupted run would have made — the property the checkpoint
// round-trip test pins and the crash-recovery story of the remote
// trainer depends on.

// agentState is the gob-serializable form of an Agent.
type agentState struct {
	Cfg Config
	// The four networks, each in nn.Network wire format.
	Actor, Critic, ActorTarget, CriticTarget []byte
	// Optimizer moments. Older checkpoints also carry single-precision
	// Adam moments (T32/M32/V32); gob skips those fields, so they
	// still load.
	ActorOpt, CriticOpt nn.AdamState
	// Exploration state.
	NoiseState []float64
	NoiseSigma float64
	// RNGDraws is the agent RNG's stream position (draw count since
	// seeding) — replay sampling and OU noise share this stream.
	RNGDraws   uint64
	LearnSteps int
	// At most one replay snapshot is set, matching the installed
	// buffer implementation; both nil when the caller skipped replay.
	Replay        *replay.PrioritizedState
	ShardedReplay *replay.ShardedState
}

// SaveState serializes the agent's complete training state to w.
// includeReplay additionally snapshots the replay buffer contents
// (required for next-update parity after restore; skippable when only
// the policy and optimizer state matter).
func (a *Agent) SaveState(w io.Writer, includeReplay bool) error {
	st := agentState{
		Cfg:        a.cfg,
		ActorOpt:   a.actorOpt.State(),
		CriticOpt:  a.criticOpt.State(),
		NoiseState: a.noise.State(),
		NoiseSigma: a.noise.Sigma(),
		RNGDraws:   a.rngSrc.draws,
		LearnSteps: a.learnSteps,
	}
	var err error
	if st.Actor, err = a.Actor.MarshalBinary(); err != nil {
		return fmt.Errorf("ddpg: checkpoint actor: %w", err)
	}
	if st.Critic, err = a.Critic.MarshalBinary(); err != nil {
		return fmt.Errorf("ddpg: checkpoint critic: %w", err)
	}
	if st.ActorTarget, err = a.actorTarget.MarshalBinary(); err != nil {
		return fmt.Errorf("ddpg: checkpoint actor target: %w", err)
	}
	if st.CriticTarget, err = a.criticTarget.MarshalBinary(); err != nil {
		return fmt.Errorf("ddpg: checkpoint critic target: %w", err)
	}
	if includeReplay {
		switch buf := a.prioritized.(type) {
		case *replay.Prioritized:
			snap := buf.State()
			st.Replay = &snap
		case *replay.Sharded:
			snap := buf.State()
			st.ShardedReplay = &snap
		case nil:
			return errors.New("ddpg: replay snapshot requires a prioritized agent")
		default:
			return fmt.Errorf("ddpg: replay snapshot unsupported for %T", buf)
		}
	}
	return gob.NewEncoder(w).Encode(&st)
}

// StateBytes is SaveState into a fresh byte slice.
func (a *Agent) StateBytes(includeReplay bool) ([]byte, error) {
	var buf bytes.Buffer
	if err := a.SaveState(&buf, includeReplay); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// loadNetwork replaces dst's parameters from a checkpoint blob.
func loadNetwork(dst *nn.Network, data []byte, name string) error {
	var net nn.Network
	if err := net.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("ddpg: restore %s: %w", name, err)
	}
	if err := dst.CopyParamsFrom(&net); err != nil {
		return fmt.Errorf("ddpg: restore %s: %w", name, err)
	}
	return nil
}

// LoadState restores a SaveState checkpoint into this agent, which
// must have been built with the identical Config (the construction
// seed included — the restored RNG stream is replayed from it) and,
// when the checkpoint carries a replay snapshot, have a still-empty
// buffer of the matching implementation and capacity installed.
// After a successful restore the agent's weights, optimizer moments,
// noise, RNG position and learn counter are bit-identical to the
// saved agent's.
func (a *Agent) LoadState(r io.Reader) error {
	var st agentState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("ddpg: decode checkpoint: %w", err)
	}
	if !reflect.DeepEqual(st.Cfg, a.cfg) {
		return fmt.Errorf("ddpg: checkpoint config %+v does not match agent config %+v", st.Cfg, a.cfg)
	}
	return a.applyState(&st, true)
}

// applyState restores a decoded checkpoint into a, whose Config
// already matches st.Cfg. withReplay controls whether a carried
// replay snapshot is restored (inference-only consumers skip it).
func (a *Agent) applyState(st *agentState, withReplay bool) error {
	if err := loadNetwork(a.Actor, st.Actor, "actor"); err != nil {
		return err
	}
	if err := loadNetwork(a.Critic, st.Critic, "critic"); err != nil {
		return err
	}
	if err := loadNetwork(a.actorTarget, st.ActorTarget, "actor target"); err != nil {
		return err
	}
	if err := loadNetwork(a.criticTarget, st.CriticTarget, "critic target"); err != nil {
		return err
	}
	if err := a.actorOpt.SetState(st.ActorOpt, a.Actor); err != nil {
		return fmt.Errorf("ddpg: restore actor optimizer: %w", err)
	}
	if err := a.criticOpt.SetState(st.CriticOpt, a.Critic); err != nil {
		return fmt.Errorf("ddpg: restore critic optimizer: %w", err)
	}
	if err := a.noise.SetState(st.NoiseState); err != nil {
		return err
	}
	a.noise.SetSigma(st.NoiseSigma)
	a.rngSrc.skipTo(st.RNGDraws)
	a.learnSteps = st.LearnSteps
	switch {
	case !withReplay:
	case st.Replay != nil:
		buf, ok := a.prioritized.(*replay.Prioritized)
		if !ok {
			return fmt.Errorf("ddpg: checkpoint carries a single-tree replay snapshot but agent has %T", a.prioritized)
		}
		if err := buf.SetState(*st.Replay); err != nil {
			return err
		}
	case st.ShardedReplay != nil:
		buf, ok := a.prioritized.(*replay.Sharded)
		if !ok {
			return fmt.Errorf("ddpg: checkpoint carries a sharded replay snapshot but agent has %T", a.prioritized)
		}
		if err := buf.SetState(*st.ShardedReplay); err != nil {
			return err
		}
	}
	return nil
}

// LoadStateBytes is LoadState from a byte slice.
func (a *Agent) LoadStateBytes(data []byte) error {
	return a.LoadState(bytes.NewReader(data))
}

// LoadAgent builds a fresh agent from a SaveState checkpoint alone:
// the embedded Config constructs the agent, then everything except
// replay contents is restored. This is the serving-plane entry point —
// a controller daemon handed a checkpoint file knows nothing about
// the configuration that trained it, and inference never touches the
// replay buffer, so a carried replay snapshot is skipped rather than
// required to fit.
func LoadAgent(r io.Reader) (*Agent, error) {
	var st agentState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("ddpg: decode checkpoint: %w", err)
	}
	a, err := New(st.Cfg)
	if err != nil {
		return nil, fmt.Errorf("ddpg: checkpoint config: %w", err)
	}
	if err := a.applyState(&st, false); err != nil {
		return nil, err
	}
	return a, nil
}

// LoadAgentBytes is LoadAgent from a byte slice.
func LoadAgentBytes(data []byte) (*Agent, error) {
	return LoadAgent(bytes.NewReader(data))
}
