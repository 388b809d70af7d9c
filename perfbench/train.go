package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"greennfv"
	"greennfv/internal/cluster"
	"greennfv/internal/control"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/placement"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// Training sizes: the paper's 4000-episode budget (the one at which
// its figure shapes appear) with four round-robin Ape-X actors, and the
// FigCluster experiment's measurement horizon.
const (
	trainEpisodes   = 4000
	trainActors     = 4
	clusterNodes    = 8
	clusterSteps    = 40
	clusterSettle   = 10
	setupSamples    = 101
	setupBatch      = 20
	probeCalls      = 200 // per batch, for calls of microseconds
	loadJitterNode  = 0.03
	latencyBudgetNs = 150e3
)

// runSeed derives the seed of replicate rep from the input seed.
func runSeed(seed int64, rep int) int64 { return seed*1000 + int64(rep) }

// nodeSLA is one of the paper's three SLA models, in both the public
// form System.Train takes and the internal form the traced run's
// environments are built with.
type nodeSLA struct {
	name   string
	public func() (greennfv.SLA, error)
	spec   func() (sla.SLA, error)
}

var nodeSLAs = []nodeSLA{
	{"MaxT", func() (greennfv.SLA, error) { return greennfv.MaxThroughputSLA(2000) },
		func() (sla.SLA, error) { return sla.NewMaxThroughput(2000) }},
	{"MinE", func() (greennfv.SLA, error) { return greennfv.MinEnergySLA(7.5) },
		func() (sla.SLA, error) { return sla.NewMinEnergy(7.5) }},
	{"EE", func() (greennfv.SLA, error) { return greennfv.EfficiencySLA(), nil },
		func() (sla.SLA, error) { return sla.NewEnergyEfficiency(), nil }},
}

func newNodeSystem(seed int64) (*greennfv.System, error) {
	return greennfv.NewSystem(greennfv.Config{
		Chain: greennfv.StandardChain, LoadJitter: loadJitterNode, Seed: seed,
	})
}

// nodeFactory builds the environments System.Train gives its actors
// (actor i steps seed+131i), for the traced replica of that training.
func nodeFactory(spec sla.SLA, seed int64) func(int) (env.Stepper, error) {
	return func(actorID int) (env.Stepper, error) {
		e, err := env.New(env.Config{
			Model:      perfmodel.Default(),
			Chain:      perfmodel.StandardChain(),
			Bounds:     perfmodel.DefaultBounds(),
			SLA:        spec,
			Flows:      env.StandardWorkload(),
			LoadJitter: loadJitterNode,
			Seed:       seed + int64(actorID)*131,
		})
		if err != nil {
			return nil, err
		}
		return e, nil
	}
}

// nodeTraining is one trained single-node policy.
type nodeTraining struct {
	sys    *greennfv.System
	sla    greennfv.SLA
	policy []byte // Policy.Save bytes
	meas   greennfv.Measurement
	train  time.Duration
}

// trainNode trains one policy through the public API, measures it,
// and checks that the saved policy reloads to the same measurement.
func trainNode(rep *report, s nodeSLA, seed int64) (nodeTraining, error) {
	var nt nodeTraining
	sys, err := newNodeSystem(seed)
	if err != nil {
		return nt, err
	}
	agreement, err := s.public()
	if err != nil {
		return nt, err
	}
	start := time.Now()
	p, err := sys.Train(agreement, greennfv.TrainOptions{Steps: trainEpisodes, Actors: trainActors})
	nt.train = time.Since(start)
	if err != nil {
		return nt, fmt.Errorf("train %s: %w", s.name, err)
	}
	if nt.meas, err = sys.Measure(p); err != nil {
		return nt, err
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nt, err
	}
	nt.sys, nt.sla, nt.policy = sys, agreement, buf.Bytes()
	reloaded, err := measureSaved(nt, nt.policy)
	if err != nil {
		return nt, err
	}
	rep.check(reloaded == nt.meas, "%s seed %d: reloaded policy measures %+v, trained policy %+v",
		s.name, seed, reloaded, nt.meas)
	rep.heap.checkpoint()
	runtime.KeepAlive(p) // the trainer p holds counts at the checkpoint
	return nt, nil
}

// measureSaved loads policy bytes into nt's system and measures them.
func measureSaved(nt nodeTraining, policy []byte) (greennfv.Measurement, error) {
	p, err := nt.sys.LoadPolicy(nt.sla, bytes.NewReader(policy))
	if err != nil {
		return greennfv.Measurement{}, err
	}
	return nt.sys.Measure(p)
}

// setupNode builds the system and measures the Baseline controller,
// and reports the time that takes as setup_s.
func setupNode(rep *report, seed int64) (greennfv.Measurement, error) {
	var base greennfv.Measurement
	var err error
	rep.metrics["setup_s"], err = setupTime(func() error {
		sys, err := newNodeSystem(runSeed(seed, 0))
		if err != nil {
			return err
		}
		base, err = sys.MeasureBaseline(greennfv.Baseline)
		return err
	})
	if err != nil {
		return base, err
	}
	rep.heap.checkpoint()
	return base, nil
}

// setupTime returns the median over setupSamples samples of the mean
// time of one call of setup in a batch of setupBatch calls, each sample
// after a forced collection. One set-up takes tens of microseconds:
// timed alone, its quartiles lay 40% apart within a run.
func setupTime(setup func() error) (float64, error) {
	var times []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		start := time.Now()
		for b := 0; b < setupBatch; b++ {
			if err := setup(); err != nil {
				return 0, err
			}
		}
		times = append(times, time.Since(start).Seconds()/setupBatch)
	}
	return median(times), nil
}

// runTrainNode is the train-node workload: the three SLA models
// trained in turn through System.Train, each scored by System.Measure.
func runTrainNode(o options) (*report, error) {
	rep := newReport()
	base, err := setupNode(rep, o.seed)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return rep, traceTrainNode(rep, o.seed, base)
	}
	var durs []float64
	begin := time.Now()
	for i := 0; ; i++ {
		if i >= len(nodeSLAs) && !roomFor(begin, durs, o.seconds) {
			break
		}
		s := nodeSLAs[i%len(nodeSLAs)]
		seed := runSeed(o.seed, i/len(nodeSLAs))
		nt, err := trainNode(rep, s, seed)
		if err != nil {
			return nil, err
		}
		durs = append(durs, nt.train.Seconds())
		rep.attempted++
		if !nt.meas.SLASatisfied {
			rep.failed++
			fmt.Printf("policy %s seed %d misses its SLA: %.3f Gbps %.1f J\n", s.name, seed, nt.meas.ThroughputGbps, nt.meas.EnergyJ)
		}
	}
	trainingMetrics(rep, durs)
	return rep, nil
}

// roomFor reports whether another training, as long as the slowest so
// far, still ends inside the measurement window.
func roomFor(begin time.Time, durs []float64, seconds float64) bool {
	return time.Since(begin).Seconds()+maxOf(durs) <= seconds
}

func trainingMetrics(rep *report, durs []float64) {
	eps := make([]float64, len(durs))
	for i, d := range durs {
		eps[i] = trainEpisodes / d
	}
	rep.metrics["ops_per_s"] = median(eps)
	fmt.Printf("trainings %d: %.1f episodes/s median, %.0f ms median, %.0f ms slowest\n",
		len(durs), median(eps), median(durs)*1000, maxOf(durs)*1000)
}

// traceTrainNode trains each SLA model once untraced (System.Train)
// and once through the traced replica of its round-robin schedule,
// checks that both give the same policy bytes and measurement, and
// reports the layer times.
func traceTrainNode(rep *report, seed int64, base greennfv.Measurement) error {
	var total layerTimes
	var untraced time.Duration
	var gbps, joules, eff float64
	for _, s := range nodeSLAs {
		runS := runSeed(seed, 0)
		nt, err := trainNode(rep, s, runS)
		if err != nil {
			return err
		}
		rep.attempted++
		if !nt.meas.SLASatisfied {
			rep.failed++
		}
		untraced += nt.train
		spec, err := s.spec()
		if err != nil {
			return err
		}
		agent, err := tracedTrain(trainerConfig(trainEpisodes, trainActors, runS), nodeFactory(spec, runS), &total)
		if err != nil {
			return err
		}
		policy, err := agent.ActorBytes()
		if err != nil {
			return err
		}
		rep.check(bytes.Equal(policy, nt.policy), "%s: traced policy bytes differ from the untraced run's", s.name)
		m, err := measureSaved(nt, policy)
		if err != nil {
			return err
		}
		rep.check(m == nt.meas, "%s: traced policy measures %+v, untraced %+v", s.name, m, nt.meas)
		gbps += m.ThroughputGbps
		joules += m.EnergyJ
		eff += m.EfficiencyGbpsPerKJ
		switch s.name {
		case "MaxT":
			rep.metrics["policy.speedup_vs_baseline"] = m.ThroughputGbps / base.ThroughputGbps
		case "MinE":
			rep.metrics["policy.energy_vs_baseline"] = m.EnergyJ / base.EnergyJ
		}
	}
	n := float64(len(nodeSLAs))
	rep.metrics["policy.gbps"] = gbps / n
	rep.metrics["policy.energy_j"] = joules / n
	rep.metrics["policy.gbps_per_kj"] = eff / n
	layerMetrics(rep, total)
	rep.metrics["trace.overhead_pct"] = 100 * (total.wall.Seconds() - untraced.Seconds()) / untraced.Seconds()
	return probePerfmodel(rep)
}

// clusterEnv builds the FigCluster 8-node cell: six chains in one
// service-function path on the heterogeneous topology, a 150 µs
// latency budget, the EE SLA, and the DRL placement head (no pinned
// placement policy).
func clusterEnv(seed int64) (*env.ClusterEnv, error) {
	chains, hops := env.StandardClusterChains(6)
	return env.NewCluster(env.ClusterConfig{
		Topology:        cluster.Heterogeneous(clusterNodes),
		Chains:          chains,
		Hops:            hops,
		LatencyBudgetNs: latencyBudgetNs,
		Bounds:          perfmodel.DefaultBounds(),
		SLA:             sla.NewEnergyEfficiency(),
		LoadJitter:      0.05,
		Seed:            seed,
	})
}

// clusterMeasurement is the settled greedy outcome of a cluster policy.
type clusterMeasurement struct{ gbps, joules float64 }

// measureCluster runs policy greedily on a fresh measurement cell the
// way ClusterGreenNFV.Step does, averaging the last clusterSettle of
// clusterSteps intervals.
func measureCluster(step func(*env.ClusterEnv) (perfmodel.Result, error), seed int64) (clusterMeasurement, error) {
	var m clusterMeasurement
	e, err := clusterEnv(seed + 1000)
	if err != nil {
		return m, err
	}
	for i := 0; i < clusterSteps; i++ {
		res, err := step(e)
		if err != nil {
			return m, err
		}
		if i >= clusterSteps-clusterSettle {
			m.gbps += res.ThroughputGbps / clusterSettle
			m.joules += res.EnergyJoules / clusterSettle
		}
	}
	return m, nil
}

// greedyStepper replays ClusterGreenNFV.Step for an agent built
// outside the controller.
func greedyStepper(agent *ddpg.Agent, seed int64) func(*env.ClusterEnv) (perfmodel.Result, error) {
	var state []float64
	return func(e *env.ClusterEnv) (perfmodel.Result, error) {
		if state == nil {
			state = e.Reset(seed + 7777)
		}
		next, _, info, err := e.Step(agent.Greedy(state))
		state = next
		return info, err
	}
}

// clusterTraining is one trained cluster policy.
type clusterTraining struct {
	policy []byte
	meas   clusterMeasurement
	train  time.Duration
	dims   [2]int
}

// trainCluster trains one cluster policy through ClusterGreenNFV,
// measures it, and checks that its saved actor network, reloaded into
// a fresh agent, measures the same.
func trainCluster(rep *report, seed int64) (clusterTraining, error) {
	var ct clusterTraining
	ctl := control.NewClusterGreenNFV(sla.NewEnergyEfficiency(), trainEpisodes, trainActors, seed)
	start := time.Now()
	if err := ctl.Prepare(clusterEnv); err != nil {
		return ct, err
	}
	ct.train = time.Since(start)
	agent := ctl.Trainer().Learner().Agent()
	var err error
	if ct.policy, err = agent.ActorBytes(); err != nil {
		return ct, err
	}
	cfg := agent.Config()
	ct.dims = [2]int{cfg.StateDim, cfg.ActionDim}
	if ct.meas, err = measureCluster(ctl.Step, seed); err != nil {
		return ct, err
	}
	reloaded, err := measureClusterPolicy(ct, ct.policy, seed)
	if err != nil {
		return ct, err
	}
	rep.check(reloaded == ct.meas, "cluster seed %d: reloaded policy measures %+v, trained policy %+v", seed, reloaded, ct.meas)
	rep.heap.checkpoint()
	runtime.KeepAlive(ctl) // the trainer ctl holds counts at the checkpoint
	return ct, nil
}

// measureClusterPolicy loads actor bytes into a fresh agent of ct's
// shape and measures it greedily.
func measureClusterPolicy(ct clusterTraining, policy []byte, seed int64) (clusterMeasurement, error) {
	agent, err := ddpg.New(ddpg.DefaultConfig(ct.dims[0], ct.dims[1]))
	if err != nil {
		return clusterMeasurement{}, err
	}
	if err := agent.LoadActorBytes(policy); err != nil {
		return clusterMeasurement{}, err
	}
	return measureCluster(greedyStepper(agent, seed), seed)
}

// setupCluster builds the cell the trainer probes, and reports the
// time that takes as setup_s.
func setupCluster(rep *report, seed int64) error {
	var err error
	rep.metrics["setup_s"], err = setupTime(func() error {
		_, err := clusterEnv(runSeed(seed, 0))
		return err
	})
	if err != nil {
		return err
	}
	rep.heap.checkpoint()
	return nil
}

// runTrainCluster is the train-cluster workload: the FigCluster cell
// trained through control.ClusterGreenNFV.
func runTrainCluster(o options) (*report, error) {
	rep := newReport()
	if err := setupCluster(rep, o.seed); err != nil {
		return nil, err
	}
	if o.trace {
		return rep, traceTrainCluster(rep, o.seed)
	}
	var durs []float64
	begin := time.Now()
	for i := 0; i == 0 || roomFor(begin, durs, o.seconds); i++ {
		seed := runSeed(o.seed, i)
		ct, err := trainCluster(rep, seed)
		if err != nil {
			return nil, err
		}
		durs = append(durs, ct.train.Seconds())
		rep.attempted++
		if !sla.NewEnergyEfficiency().Satisfied(ct.meas.gbps, ct.meas.joules) {
			rep.failed++
		}
	}
	trainingMetrics(rep, durs)
	return rep, nil
}

// traceTrainCluster trains the cell once untraced and once traced,
// checks the two agree bit for bit, and reports the layer times.
func traceTrainCluster(rep *report, seed int64) error {
	runS := runSeed(seed, 0)
	ct, err := trainCluster(rep, runS)
	if err != nil {
		return err
	}
	rep.attempted++
	if !sla.NewEnergyEfficiency().Satisfied(ct.meas.gbps, ct.meas.joules) {
		rep.failed++
	}
	var times layerTimes
	agent, err := tracedTrain(trainerConfig(trainEpisodes, trainActors, runS),
		func(actorID int) (env.Stepper, error) {
			e, err := clusterEnv(runS + int64(actorID)*131)
			if err != nil {
				return nil, err
			}
			return e, nil
		}, &times)
	if err != nil {
		return err
	}
	policy, err := agent.ActorBytes()
	if err != nil {
		return err
	}
	rep.check(bytes.Equal(policy, ct.policy), "cluster: traced policy bytes differ from the untraced run's")
	m, err := measureCluster(greedyStepper(agent, runS), runS)
	if err != nil {
		return err
	}
	rep.check(m == ct.meas, "cluster: traced policy measures %+v, untraced %+v", m, ct.meas)
	rep.metrics["policy.gbps"] = m.gbps
	rep.metrics["policy.energy_j"] = m.joules
	rep.metrics["policy.gbps_per_kj"] = m.gbps / (m.joules / 1000)
	layerMetrics(rep, times)
	rep.metrics["trace.overhead_pct"] = 100 * (times.wall.Seconds() - ct.train.Seconds()) / ct.train.Seconds()
	if err := probePerfmodel(rep); err != nil {
		return err
	}
	return probeCluster(rep)
}

// probePerfmodel times one single-node model evaluation of the
// standard chain at default knobs under the paper's workload.
func probePerfmodel(rep *report) error {
	model := perfmodel.Default()
	chain := perfmodel.StandardChain()
	knobs := perfmodel.DefaultKnobs(len(chain.NFs))
	tr, err := env.Aggregate(env.StandardWorkload())
	if err != nil {
		return err
	}
	var res perfmodel.Result
	us, err := probeUS(probeCalls, func() error { return model.EvaluateInto(&res, chain, knobs, tr, perfmodel.EvalOptions{}) })
	rep.metrics["perfmodel.evaluate_us"] = us
	return err
}

// probeCluster times the placement solve and one cluster evaluation of
// the train-cluster cell at default knobs.
func probeCluster(rep *report) error {
	chains, hops := env.StandardClusterChains(6)
	w := cluster.Workload{Hops: hops, LatencyBudgetNs: latencyBudgetNs}
	knobs := make([][]perfmodel.NFKnobs, len(chains))
	bounds := perfmodel.DefaultBounds()
	for i, c := range chains {
		tr, err := env.Aggregate(c.Flows)
		if err != nil {
			return err
		}
		w.Chains = append(w.Chains, cluster.ChainLoad{Chain: c.Chain, Traffic: tr})
		knobs[i] = perfmodel.DefaultKnobs(len(c.Chain.NFs))
		for j := range knobs[i] {
			knobs[i][j] = bounds.Clamp(knobs[i][j])
		}
	}
	topo := cluster.Heterogeneous(clusterNodes)
	problem := w.PlacementProblem(&topo)
	var sol placement.Solution
	us, err := probeUS(probeCalls, func() (err error) { sol, err = placement.FFDSwap{}.Solve(problem); return err })
	if err != nil {
		return err
	}
	rep.metrics["placement.solve_us"] = us
	assign := make([]int, len(chains))
	for i, c := range chains {
		assign[i] = sol.Assignment[c.Chain.Name]
	}
	var res cluster.Result
	us, err = probeUS(probeCalls, func() error { return topo.EvaluateClusterInto(&res, &w, knobs, assign, perfmodel.EvalOptions{}) })
	rep.metrics["cluster.evaluate_us"] = us
	return err
}

// probeUS returns the median over 21 batches of perBatch calls of f
// of the mean per-call time, in microseconds, after one warm-up batch.
func probeUS(perBatch int, f func() error) (float64, error) {
	var means []float64
	for b := 0; b <= 21; b++ {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		if b > 0 {
			means = append(means, float64(time.Since(start).Nanoseconds())/1e3/float64(perBatch))
		}
	}
	return median(means), nil
}
