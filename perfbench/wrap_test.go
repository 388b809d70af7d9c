package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/replay"
	"greennfv/internal/sla"
)

// A traced training must produce the policy the untraced trainer
// produces, on both environment kinds.
func TestTracedTrainMatchesTrainer(t *testing.T) {
	clusterFactory := func(seed int64) func(int) (env.Stepper, error) {
		return func(id int) (env.Stepper, error) {
			e, err := clusterEnv(seed + int64(id)*131)
			if err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	for name, factory := range map[string]func(int) (env.Stepper, error){
		"node":    nodeFactory(sla.NewEnergyEfficiency(), 5),
		"cluster": clusterFactory(5),
	} {
		cfg := trainerConfig(300, 2, 5)
		cfg.StepperFactory = factory
		plain, err := apex.NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := plain.Run(); err != nil {
			t.Fatal(err)
		}
		want, _ := plain.Learner().Agent().ActorBytes()

		var times layerTimes
		agent, err := tracedTrain(trainerConfig(300, 2, 5), factory, &times)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := agent.ActorBytes()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: traced policy differs from the trainer's", name)
		}
		if times.actorCalls != 300 || times.envCalls != 300 {
			t.Errorf("%s: %d actor steps, %d env steps; want 300 each", name, times.actorCalls, times.envCalls)
		}
		if times.learnCalls != 300-cfg.WarmupSteps || times.sampleCalls != times.learnCalls {
			t.Errorf("%s: %d learn steps, %d samples; want %d each", name, times.learnCalls, times.sampleCalls, 300-cfg.WarmupSteps)
		}
		if times.pushTransitions != times.addTransitions || times.pushCalls != 2*(150/cfg.PushEvery) {
			t.Errorf("%s: %d pushes of %d transitions, replay got %d", name, times.pushCalls, times.pushTransitions, times.addTransitions)
		}
		rep := newReport()
		layerMetrics(rep, times)
		if len(rep.problems) != 0 {
			t.Errorf("%s: layer times do not reconcile: %v", name, rep.problems)
		}
	}
}

func TestReplayTraceForwards(t *testing.T) {
	inner, err := replay.NewPrioritized(64, 0.6, 0.4, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := replay.NewPrioritized(64, 0.6, 0.4, 0.001)
	var lt layerTimes
	traced := &replayTrace{inner: inner, t: &lt}
	var ts []replay.Transition
	var prios []float64
	for i := 0; i < 40; i++ {
		ts = append(ts, replay.Transition{State: []float64{float64(i)}, Action: []float64{1}, Reward: float64(i % 7), NextState: []float64{2}})
		prios = append(prios, float64(i%5)+0.5)
	}
	traced.AddBatch(ts[:30], prios[:30])
	twin.AddBatch(ts[:30], prios[:30])
	traced.AddWithPriority(ts[30], 2)
	twin.AddWithPriority(ts[30], 2)
	traced.Add(ts[31])
	twin.Add(ts[31])
	if traced.Len() != twin.Len() || traced.Beta() != twin.Beta() || lt.addTransitions != 32 {
		t.Fatalf("len %d/%d beta %v/%v adds %d", traced.Len(), twin.Len(), traced.Beta(), twin.Beta(), lt.addTransitions)
	}
	s1, i1, w1 := traced.SampleInto(rand.New(rand.NewSource(3)), 8, nil, nil, nil)
	s2, i2, w2 := twin.SampleInto(rand.New(rand.NewSource(3)), 8, nil, nil, nil)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(i1, i2) || !reflect.DeepEqual(w1, w2) {
		t.Fatal("traced replay sampled differently")
	}
	traced.UpdatePrioritiesBatch(i1, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	twin.UpdatePrioritiesBatch(i2, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	s1, _, w1 = traced.SampleInto(rand.New(rand.NewSource(4)), 8, nil, nil, nil)
	s2, _, w2 = twin.SampleInto(rand.New(rand.NewSource(4)), 8, nil, nil, nil)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(w1, w2) || lt.sampleCalls != 2 {
		t.Fatal("traced replay diverged after a priority update")
	}
}

func TestStepperTraceForwards(t *testing.T) {
	newEnv := func() *env.Env {
		e, err := nodeFactory(sla.NewEnergyEfficiency(), 11)(0)
		if err != nil {
			t.Fatal(err)
		}
		return e.(*env.Env)
	}
	plain := newEnv()
	var lt layerTimes
	traced := &stepperTrace{inner: newEnv(), t: &lt}
	if traced.StateDim() != plain.StateDim() || traced.ActionDim() != plain.ActionDim() ||
		traced.NumNFs() != plain.NumNFs() || traced.SLA() != plain.SLA() {
		t.Fatal("traced env reports different dimensions or SLA")
	}
	if !reflect.DeepEqual(traced.Reset(4), plain.Reset(4)) {
		t.Fatal("Reset differs")
	}
	action := make([]float64, plain.ActionDim())
	obs1, obs2 := make([]float64, plain.StateDim()), make([]float64, plain.StateDim())
	for i := 0; i < 5; i++ {
		for j := range action {
			action[j] = float64((i+j)%3) - 1
		}
		r1, res1, err1 := traced.StepInto(action, obs1)
		r2, res2, err2 := plain.StepInto(action, obs2)
		if r1 != r2 || !sameResult(res1, res2) || err1 != err2 || !reflect.DeepEqual(obs1, obs2) {
			t.Fatalf("StepInto %d differs", i)
		}
	}
	o1, r1, res1, _ := traced.Step(action)
	o2, r2, res2, _ := plain.Step(action)
	if !reflect.DeepEqual(o1, o2) || r1 != r2 || !sameResult(res1, res2) ||
		!reflect.DeepEqual(traced.Knobs(), plain.Knobs()) || lt.envCalls != 6 {
		t.Fatal("Step differs")
	}
	if !reflect.DeepEqual(traced.ResetInto(8, obs1), plain.ResetInto(8, obs2)) {
		t.Fatal("ResetInto differs")
	}
}

func sameResult(a, b perfmodel.Result) bool {
	return a.ThroughputGbps == b.ThroughputGbps && a.EnergyJoules == b.EnergyJoules && a.Efficiency == b.Efficiency
}
