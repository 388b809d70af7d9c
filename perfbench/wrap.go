package main

import (
	"math/rand"
	"time"

	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/rl/replay"
	"greennfv/internal/sla"
)

// The wrappers below time a layer from outside: each forwards every
// call unchanged to the wrapped value and adds the call's count and
// wall time to a layerTimes. They are single-goroutine, like the
// round-robin trainer that drives them.

// layerTimes accumulates the traced counts and busy times of the
// training runs it is handed to.
type layerTimes struct {
	actorCalls, learnCalls int
	actorBusy, learnBusy   time.Duration

	pushCalls, pushTransitions int
	pushBusy                   time.Duration
	pullCalls, pullSyncs       int
	pullBytes                  int
	pullBusy                   time.Duration

	envCalls int
	envBusy  time.Duration

	addTransitions int
	addBusy        time.Duration
	sampleCalls    int
	sampleBusy     time.Duration
	updateBusy     time.Duration

	wall time.Duration
}

// learnerTrace wraps the learner the actors push to and pull from.
type learnerTrace struct {
	inner apex.LearnerAPI
	t     *layerTimes
}

var _ apex.LearnerAPI = (*learnerTrace)(nil)

func (l *learnerTrace) PushExperience(batch []apex.Experience) error {
	start := time.Now()
	err := l.inner.PushExperience(batch)
	l.t.pushBusy += time.Since(start)
	l.t.pushCalls++
	l.t.pushTransitions += len(batch)
	return err
}

func (l *learnerTrace) PullParams(haveVersion int) (int, []byte, error) {
	start := time.Now()
	v, data, err := l.inner.PullParams(haveVersion)
	l.t.pullBusy += time.Since(start)
	l.t.pullCalls++
	if data != nil {
		l.t.pullSyncs++
		l.t.pullBytes += len(data)
	}
	return v, data, err
}

func (l *learnerTrace) RetainsExperience() bool { return l.inner.RetainsExperience() }

// stepperTrace wraps one actor's environment.
type stepperTrace struct {
	inner env.Stepper
	t     *layerTimes
}

var _ env.Stepper = (*stepperTrace)(nil)

func (s *stepperTrace) StateDim() int              { return s.inner.StateDim() }
func (s *stepperTrace) ActionDim() int             { return s.inner.ActionDim() }
func (s *stepperTrace) NumNFs() int                { return s.inner.NumNFs() }
func (s *stepperTrace) Reset(seed int64) []float64 { return s.inner.Reset(seed) }
func (s *stepperTrace) ResetInto(seed int64, obs []float64) []float64 {
	return s.inner.ResetInto(seed, obs)
}
func (s *stepperTrace) Knobs() []perfmodel.NFKnobs { return s.inner.Knobs() }
func (s *stepperTrace) SLA() sla.SLA               { return s.inner.SLA() }

func (s *stepperTrace) Step(action []float64) ([]float64, float64, perfmodel.Result, error) {
	start := time.Now()
	obs, r, res, err := s.inner.Step(action)
	s.t.envBusy += time.Since(start)
	s.t.envCalls++
	return obs, r, res, err
}

func (s *stepperTrace) StepInto(action, obs []float64) (float64, perfmodel.Result, error) {
	start := time.Now()
	r, res, err := s.inner.StepInto(action, obs)
	s.t.envBusy += time.Since(start)
	s.t.envCalls++
	return r, res, err
}

// replayTrace wraps the learner's prioritized replay. It must be
// installed (ddpg.Agent.SetReplay) before any experience flows.
type replayTrace struct {
	inner ddpg.PrioritizedReplay
	t     *layerTimes
}

var _ ddpg.PrioritizedReplay = (*replayTrace)(nil)

func (r *replayTrace) Len() int      { return r.inner.Len() }
func (r *replayTrace) Beta() float64 { return r.inner.Beta() }

func (r *replayTrace) Add(t replay.Transition) {
	start := time.Now()
	r.inner.Add(t)
	r.t.addBusy += time.Since(start)
	r.t.addTransitions++
}

func (r *replayTrace) AddWithPriority(t replay.Transition, priority float64) {
	start := time.Now()
	r.inner.AddWithPriority(t, priority)
	r.t.addBusy += time.Since(start)
	r.t.addTransitions++
}

func (r *replayTrace) AddBatch(ts []replay.Transition, priorities []float64) {
	start := time.Now()
	r.inner.AddBatch(ts, priorities)
	r.t.addBusy += time.Since(start)
	r.t.addTransitions += len(ts)
}

func (r *replayTrace) SampleInto(rng *rand.Rand, n int, samples []replay.Transition, indices []int, weights []float64) ([]replay.Transition, []int, []float64) {
	start := time.Now()
	s, i, w := r.inner.SampleInto(rng, n, samples, indices, weights)
	r.t.sampleBusy += time.Since(start)
	r.t.sampleCalls++
	return s, i, w
}

func (r *replayTrace) UpdatePrioritiesBatch(indices []int, tdErrs []float64) {
	start := time.Now()
	r.inner.UpdatePrioritiesBatch(indices, tdErrs)
	r.t.updateBusy += time.Since(start)
}

// trainerConfig is the Ape-X configuration control.GreenNFV and
// control.ClusterGreenNFV build for a deterministic round-robin run,
// with the environment factory left to the caller.
func trainerConfig(steps, actors int, seed int64) apex.TrainerConfig {
	cfg := apex.DefaultTrainerConfig(steps)
	cfg.Actors = actors
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Seed = seed
	return cfg
}

// tracedTrain runs the round-robin Ape-X schedule of
// apex.Trainer.Run with every layer wrapped: each actor's environment
// (through StepperFactory), the learner's replay (SetReplay, before
// any step) and the learner as the actors see it. It returns the
// trained learner agent and adds the layer times to t. Wrapping must
// not change the result: callers compare the policy bytes with an
// untraced run.
func tracedTrain(cfg apex.TrainerConfig, factory func(actorID int) (env.Stepper, error), t *layerTimes) (*ddpg.Agent, error) {
	cfg.EnvFactory = nil
	cfg.StepperFactory = func(actorID int) (env.Stepper, error) {
		e, err := factory(actorID)
		if err != nil {
			return nil, err
		}
		return &stepperTrace{inner: e, t: t}, nil
	}
	trainer, err := apex.NewTrainer(cfg)
	if err != nil {
		return nil, err
	}
	learner := trainer.Learner()
	agent := learner.Agent()
	if err := agent.SetReplay(&replayTrace{inner: agent.Replay(), t: t}); err != nil {
		return nil, err
	}
	api := &learnerTrace{inner: learner, t: t}

	begin := time.Now()
	steps := 0
	for steps < cfg.TotalSteps {
		for _, actor := range trainer.Actors() {
			if steps >= cfg.TotalSteps {
				break
			}
			start := time.Now()
			_, _, err := actor.Step(api)
			t.actorBusy += time.Since(start)
			t.actorCalls++
			if err != nil {
				return nil, err
			}
			steps++
			if steps > cfg.WarmupSteps {
				for l := 0; l < cfg.LearnPerStep; l++ {
					start := time.Now()
					learner.LearnStep(cfg.VersionEvery)
					t.learnBusy += time.Since(start)
					t.learnCalls++
				}
			}
		}
	}
	t.wall += time.Since(begin)
	return agent, nil
}

// layerMetrics turns accumulated times into the per-layer metrics and
// checks that they reconcile with the traced wall clock: the actor and
// learner steps must cover the loop's wall time to within
// attributionTolerance, and every child span must fit in its parent.
func layerMetrics(rep *report, t layerTimes) {
	s := func(d time.Duration) float64 { return d.Seconds() }
	m := rep.metrics
	m["apex.actor_step.calls"] = float64(t.actorCalls)
	m["apex.actor_step.busy_s"] = s(t.actorBusy)
	m["apex.learn_step.calls"] = float64(t.learnCalls)
	m["apex.learn_step.busy_s"] = s(t.learnBusy)
	m["apex.push.calls"] = float64(t.pushCalls)
	m["apex.push.transitions"] = float64(t.pushTransitions)
	m["apex.push.busy_s"] = s(t.pushBusy)
	m["apex.pull.calls"] = float64(t.pullCalls)
	m["apex.pull.syncs"] = float64(t.pullSyncs)
	m["apex.pull.bytes"] = float64(t.pullBytes)
	m["apex.pull.busy_s"] = s(t.pullBusy)
	m["env.step.calls"] = float64(t.envCalls)
	m["env.step.busy_s"] = s(t.envBusy)
	m["replay.add.transitions"] = float64(t.addTransitions)
	m["replay.add.busy_s"] = s(t.addBusy)
	m["replay.sample.calls"] = float64(t.sampleCalls)
	m["replay.sample.busy_s"] = s(t.sampleBusy)
	m["replay.update.busy_s"] = s(t.updateBusy)
	learnSelf := t.learnBusy - t.sampleBusy - t.updateBusy
	actSelf := t.actorBusy - t.envBusy - t.pushBusy - t.pullBusy
	m["ddpg.learn.self_s"] = s(learnSelf)
	m["ddpg.act.self_s"] = s(actSelf)
	m["trace.wall_s"] = s(t.wall)
	share := s(t.actorBusy+t.learnBusy) / s(t.wall)
	m["trace.attributed_share"] = share
	rep.check(share >= 1-attributionTolerance && share <= 1,
		"actor+learner busy time is %.4f of the traced wall clock, outside [%.2f, 1]", share, 1-attributionTolerance)
	rep.check(learnSelf >= 0 && actSelf >= 0 && t.addBusy <= t.pushBusy,
		"child spans exceed their parents (learn self %v, act self %v, replay add %v > push %v)",
		learnSelf, actSelf, t.addBusy, t.pushBusy)
	rep.check(t.pushTransitions == t.addTransitions,
		"pushed %d transitions but the replay received %d", t.pushTransitions, t.addTransitions)
}

// attributionTolerance is the share of a traced training's wall clock
// the actor and learner spans may leave unattributed (the loop itself
// and the timer calls).
const attributionTolerance = 0.05
