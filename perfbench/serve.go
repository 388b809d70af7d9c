package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/rpc"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"greennfv"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/rpcutil"
	"greennfv/internal/serve"
	"greennfv/internal/stats"
)

// The serve workload's traffic: two fixed Poisson rates well below the
// controller's knee on a 2-core x86 box (light leaves it mostly idle,
// heavy keeps it busy without backlog), then a search for the highest
// sustainable rate.
const (
	lightRate = 1000 // reports per second
	heavyRate = 4000
)

// The max-rate search holds report p99 at or under latencyLimitMS in
// probes of searchStep (stretched to minPhaseSamples reports). It
// brackets the knee by searchFactor from searchStart times the heavy
// rate, bisects searchBisections times, then walks a staircase of
// searchFactor^(1/2^(searchBisections+1)) (2.6%) steps from the middle
// of the bracket, one probe per searchStep of the time left, and
// reports the staircase's mean rate. A control interval is a second or
// more, so 50 ms is a tight bound for a node waiting on its config.
const (
	latencyLimitMS   = 50
	searchStep       = time.Second
	searchStart      = 4
	searchFactor     = 1.5
	searchBisections = 3
	// The staircase gets the time the fixed phases leave, less about
	// bracketProbes probes for the search, and at least minStairProbes.
	bracketProbes  = 8
	minStairProbes = 8
)

// Serving sizes: 32 simulated nodes over two connections, each cycling
// through payloadsPerNode reports recorded from a node agent after
// agentWarmup control intervals. The served policy is the one
// `greennfv -save-policy` trains with its defaults: the EE SLA on the
// standard chain, seed 17, 4000 episodes, 4 actors.
const (
	serveNodes        = 32
	serveConns        = 2
	payloadsPerNode   = 64
	agentWarmup       = 8
	serveSetupRepeats = 9
)

// payload is one pre-generated node report.
type payload struct {
	obs     []float64
	traffic perfmodel.Traffic
}

// serveRig is one set-up controller with its clients and inputs.
type serveRig struct {
	ctrl     *serve.Controller
	reg      *stats.Registry
	spec     apex.ActorSpec
	blob     []byte
	conns    *connSet
	epochs   []uint64
	payloads [][]payload // [node][seq % payloadsPerNode]
	stateDir string
}

func nodeID(n int) string { return fmt.Sprintf("node-%03d", n) }

// servedPolicy trains the served policy as `greennfv -save-policy`
// does with its default flags and returns its checkpoint and the node
// spec `greennfv -write-spec` writes for it.
func servedPolicy() (checkpoint, spec []byte, err error) {
	sys, err := greennfv.NewSystem(greennfv.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	agreement := greennfv.EfficiencySLA()
	policy, err := sys.Train(agreement, greennfv.TrainOptions{Steps: trainEpisodes, Actors: trainActors})
	if err != nil {
		return nil, nil, err
	}
	var blob, specJSON bytes.Buffer
	if err := policy.SaveCheckpoint(&blob); err != nil {
		return nil, nil, err
	}
	if err := sys.WriteNodeSpec(agreement, &specJSON); err != nil {
		return nil, nil, err
	}
	return blob.Bytes(), specJSON.Bytes(), nil
}

// setupServe writes the served policy's checkpoint and node spec,
// starts a controller configured as cmd/greennfvd does by default (no
// state file) behind its net/rpc listener on loopback, records the
// fleet's reports, and registers the benchmark's clients as the fleet.
func setupServe(o options, idx int, checkpoint, specJSON []byte) (*serveRig, error) {
	dir := filepath.Join(o.workDir, fmt.Sprintf("serve-%d", idx))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	policyPath := filepath.Join(dir, "policy.ckpt")
	if err := os.WriteFile(policyPath, checkpoint, 0o644); err != nil {
		return nil, err
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, specJSON, 0o644); err != nil {
		return nil, err
	}
	// cmd/greennfvd decodes the spec with plain JSON: the spec carries
	// no training cadence, which apex.DecodeActorSpec would reject.
	rig := &serveRig{blob: checkpoint, stateDir: dir}
	f, err := os.Open(specPath)
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(f).Decode(&rig.spec)
	f.Close()
	if err != nil {
		return nil, err
	}
	if rig.ctrl, err = serve.NewController(serve.Config{Spec: rig.spec, PolicyPath: policyPath}); err != nil {
		return nil, err
	}
	rig.reg = stats.NewRegistry()
	rig.ctrl.RegisterMetrics(rig.reg)
	if err := rig.ctrl.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if rig.payloads, err = recordFleet(rig.spec, rig.ctrl.Addr(), o.seed); err != nil {
		rig.close()
		return nil, err
	}
	if rig.conns, err = dialConns(rig.ctrl.Addr(), serveConns); err != nil {
		rig.close()
		return nil, err
	}
	// Registering supersedes the recording agents' leases.
	rig.epochs = make([]uint64, serveNodes)
	for n := range rig.epochs {
		var reply serve.RegisterNodeReply
		if err := rig.conns.call(n%serveConns, "Controller.Register", &serve.RegisterNodeArgs{NodeID: nodeID(n)}, &reply); err != nil {
			rig.close()
			return nil, err
		}
		rig.epochs[n] = reply.Epoch
	}
	return rig, nil
}

// recordFleet runs each node's serve.NodeAgent, as greennfv-agent -rank
// n runs it, against the controller for agentWarmup + payloadsPerNode
// control intervals, and records the reports after the warm-up: the
// observation and traffic the agent's environment holds as it steps,
// which are what the agent reports. Each agent's environment jitters
// its load by the spec's own LoadJitter and applies the configs the
// controller returns. The input seed seeds the fleet's load processes
// (the spec's EnvSeed; rank n adds 131n).
func recordFleet(spec apex.ActorSpec, addr string, seed int64) ([][]payload, error) {
	spec.EnvSeed = runSeed(seed, 0)
	out := make([][]payload, serveNodes)
	for n := range out {
		a, err := serve.NewNodeAgent(serve.NodeConfig{NodeID: nodeID(n), ControllerAddr: addr, Spec: spec, Rank: n})
		if err != nil {
			return nil, err
		}
		e := a.Env()
		for k := 0; k < agentWarmup+payloadsPerNode; k++ {
			if k >= agentWarmup {
				out[n] = append(out[n], payload{obs: e.ObserveInto(make([]float64, e.StateDim())), traffic: e.LastTraffic()})
			}
			// A hold or a local guardrail rejection is advisory: the
			// agent has still applied a vetted config or held.
			a.Step(time.Now())
		}
		a.Close()
		if misses := a.Counters().Get(serve.CounterHeartbeatMisses); misses != 0 {
			return nil, fmt.Errorf("node %d: %d reports failed to reach the controller while recording", n, misses)
		}
	}
	return out, nil
}

func (r *serveRig) close() {
	if r.conns != nil {
		r.conns.close()
	}
	r.ctrl.Close()
}

func (r *serveRig) payload(req request) payload {
	return r.payloads[req.node][req.seq%payloadsPerNode]
}

// connSet is the generator's few client connections, redialled after
// a transport failure (rpcutil.Conn tears itself down on a timeout).
type connSet struct {
	addr  string
	mu    sync.Mutex
	conns []*rpcutil.Conn
}

func dialConns(addr string, n int) (*connSet, error) {
	cs := &connSet{addr: addr, conns: make([]*rpcutil.Conn, n)}
	for i := range cs.conns {
		c, err := rpcutil.Dial(addr, serve.DefaultCallTimeout)
		if err != nil {
			cs.close()
			return nil, err
		}
		cs.conns[i] = c
	}
	return cs, nil
}

func (cs *connSet) call(i int, method string, args, reply any) error {
	cs.mu.Lock()
	c := cs.conns[i]
	cs.mu.Unlock()
	if c == nil {
		return errors.New("connection down")
	}
	err := c.Call(method, args, reply)
	var serverErr rpc.ServerError
	if err != nil && !errors.As(err, &serverErr) {
		cs.mu.Lock()
		if cs.conns[i] == c {
			c.Close()
			cs.conns[i], _ = rpcutil.Dial(cs.addr, serve.DefaultCallTimeout)
		}
		cs.mu.Unlock()
	}
	return err
}

func (cs *connSet) close() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, c := range cs.conns {
		if c != nil {
			c.Close()
		}
	}
}

// serveRun sends the phases of one run and checks every reply as it
// arrives, so the generator keeps no reply beyond its own call.
type serveRun struct {
	rig  *serveRig
	rep  *report
	rng  *rand.Rand
	next []int

	sent, errors int
	// base is the controller's counters before the run's first report.
	base map[string]int64

	mu    sync.Mutex // guards everything below
	guard serve.Guardrail
	// replies counts successful replies by source.
	replies map[string]int
	// lastPolicy is each node's last policy-sourced config, for
	// counting last-known-good changes.
	lastPolicy [][]perfmodel.NFKnobs
	changes    int
	// The independent guardrail's predictions for served configs are
	// summed while collecting is set.
	collecting            bool
	gbps, joules, eff, nq float64
}

func newServeRun(rig *serveRig, rep *report, seed int64) (*serveRun, error) {
	probe, err := rig.spec.BuildEnv(0)
	if err != nil {
		return nil, err
	}
	return &serveRun{
		rig:  rig,
		rep:  rep,
		rng:  rand.New(rand.NewSource(seed)),
		next: make([]int, serveNodes),
		base: rig.ctrl.Counters().Snapshot(),
		guard: serve.Guardrail{
			Model: perfmodel.Default(), Chain: probe.Chain(), Bounds: probe.Bounds(), SLA: probe.SLA(),
		},
		replies:    map[string]int{},
		lastPolicy: make([][]perfmodel.NFKnobs, serveNodes),
	}, nil
}

// run sends one phase at rate for dur.
func (s *serveRun) run(rate float64, dur time.Duration, maxInflight int) phaseResult {
	p := runPhase(schedule(s.rng, rate, dur, s.next), rate, maxInflight, func(i int, req request) error {
		pl := s.rig.payload(req)
		var reply serve.ReportReply
		err := s.rig.conns.call(i%serveConns, "Controller.Report", &serve.ReportArgs{
			NodeID: nodeID(req.node), Epoch: s.rig.epochs[req.node], Obs: pl.obs, Traffic: pl.traffic,
		}, &reply)
		if err == nil {
			s.observe(req, &reply, pl.traffic)
		}
		return err
	})
	s.sent += p.sent
	s.errors += p.errors
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d reports at %.0f/s failed, e.g. %v\n", p.errors, p.sent, rate, p.firstErr)
	}
	return p
}

// observe checks one reply: a hold carries no config, and every served
// config must pass an independent guardrail at the report's traffic.
func (s *serveRun) observe(req request, reply *serve.ReportReply, tr perfmodel.Traffic) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replies[reply.Source]++
	if reply.Hold {
		s.rep.check(reply.Config == nil && reply.Source == serve.SourceHold, "hold reply carries config %v from %q", reply.Config, reply.Source)
		return
	}
	pred, err := s.guard.Check(reply.Config, tr)
	s.rep.check(err == nil, "node %d report %d: served config fails an independent guardrail: %v", req.node, req.seq, err)
	if s.collecting && err == nil {
		s.gbps += pred.ThroughputGbps
		s.joules += pred.EnergyJoules
		s.eff += pred.ThroughputGbps / (pred.EnergyJoules / 1000)
		s.nq++
	}
	if reply.Source == serve.SourcePolicy && !sameKnobs(s.lastPolicy[req.node], reply.Config) {
		s.changes++
		s.lastPolicy[req.node] = reply.Config
	}
}

func sameKnobs(a, b []perfmodel.NFKnobs) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// finish checks the controller's ledger for the run's reports against
// the generator's.
func (s *serveRun) finish() {
	c := s.rig.ctrl.Counters()
	count := func(name string) int { return int(c.Get(name) - s.base[name]) }
	policy := count(serve.CounterSourcePolicy)
	lastGood := count(serve.CounterSourceLastGood)
	hold := count(serve.CounterSourceHold)
	pushed := count(serve.CounterConfigsPushed)
	s.rep.check(pushed == policy+lastGood, "configs_pushed %d != policy %d + last-good %d", pushed, policy, lastGood)
	replies := s.replies[serve.SourcePolicy] + s.replies[serve.SourceLastGood] + s.replies[serve.SourceHold]
	s.rep.check(replies == s.sent-s.errors, "%d replies to %d reports with %d errors", replies, s.sent, s.errors)
	if s.errors == 0 {
		s.rep.check(policy == s.replies[serve.SourcePolicy] && lastGood == s.replies[serve.SourceLastGood] && hold == s.replies[serve.SourceHold],
			"controller counted policy/last-good/hold %d/%d/%d, replies say %d/%d/%d", policy, lastGood, hold,
			s.replies[serve.SourcePolicy], s.replies[serve.SourceLastGood], s.replies[serve.SourceHold])
	}
	s.rep.attempted += s.sent
	s.rep.failed += s.errors
}

// runServe is the serve workload.
func runServe(o options) (*report, error) {
	rep := newReport()
	checkpoint, specJSON, err := servedPolicy()
	if err != nil {
		return nil, err
	}
	var rig *serveRig
	var times []float64
	for i := 0; i < serveSetupRepeats; i++ {
		if rig != nil {
			rig.close()
		}
		// Each set-up starts with no collector debt from the last.
		runtime.GC()
		start := time.Now()
		if rig, err = setupServe(o, i, checkpoint, specJSON); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer rig.close()
	rep.metrics["setup_s"] = median(times)
	if err := heldForOneReport(rig, rep); err != nil {
		return nil, err
	}
	sr, err := newServeRun(rig, rep, o.seed)
	if err != nil {
		return nil, err
	}
	total := time.Duration(o.seconds * float64(time.Second))
	// Warm the connections before timing.
	sr.run(lightRate, total/30, 0)

	lightDur := phaseLength(total/10, lightRate)
	heavyDur := phaseLength(total/5, heavyRate)
	sr.collecting = true
	light := sr.run(lightRate, lightDur, 0)
	sr.collecting = false
	if o.trace {
		err = traceServe(sr, light, heavyDur)
	} else {
		heavy := sr.run(heavyRate, heavyDur, 0)
		probe := func(rate float64) bool {
			// A probe stops at twice the backlog sustainable() allows,
			// long before the backlog reaches the call deadline.
			p := sr.run(rate, phaseLength(searchStep, rate), int(2*rate*latencyLimitMS/1000))
			return p.sustainable(latencyLimitMS)
		}
		lo, hi := searchMaxRate(searchStart*heavyRate, searchFactor, searchBisections, probe)
		if lo == 0 || math.IsInf(hi, 1) {
			return nil, fmt.Errorf("max-rate search found no knee: highest pass %.0f/s, lowest failure %.0f/s", lo, hi)
		}
		stairs := max(minStairProbes, int((total-total/30-lightDur-heavyDur)/searchStep)-bracketProbes)
		step := math.Pow(searchFactor, 1/math.Pow(2, searchBisections+1))
		maxRate := staircase(math.Sqrt(lo*hi), step, stairs, probe)
		fmt.Printf("max-rate bracket [%.0f, %.0f]/s, then %d probes in steps of %.4f\n", lo, hi, stairs, step)
		rep.metrics["ops_per_s"] = maxRate
		fmt.Printf("light %d/s p50 %.3f ms p99 %.3f ms; heavy %d/s p50 %.3f ms p99 %.3f ms, sent %.3f ms late at p50; max rate %.0f/s at p99 <= %d ms\n",
			lightRate, median(light.latency), quantile(light.latency, 0.99),
			heavyRate, median(heavy.latency), quantile(heavy.latency, 0.99), median(heavy.late), maxRate, latencyLimitMS)
		fmt.Printf("%d of %d policy replies changed their node's config\n", sr.changes, sr.replies[serve.SourcePolicy])
	}
	if err != nil {
		return nil, err
	}
	sr.finish()
	return rep, nil
}

// heldForOneReport takes serve's heap checkpoint: it empties the
// controller's scratch pool (two collections), sends one report, and
// reads the heap the controller then holds: its policy, its fleet and
// the scratch one report leaves pooled. Under traffic the pool holds
// as many scratch sets as reports ran at once, which moves in whole
// sets from run to run (serve.heap_after_heavy_mb, per layer).
func heldForOneReport(rig *serveRig, rep *report) error {
	runtime.GC()
	runtime.GC()
	pl := rig.payloads[0][0]
	var reply serve.ReportReply
	if err := rig.conns.call(0, "Controller.Report", &serve.ReportArgs{
		NodeID: nodeID(0), Epoch: rig.epochs[0], Obs: pl.obs, Traffic: pl.traffic,
	}, &reply); err != nil {
		return err
	}
	rep.heap.checkpoint()
	return nil
}

// phaseLength stretches dur so a phase at rate is expected to send
// minPhaseSamples reports: enough that its p99 has ten samples beyond
// it even when the Poisson count falls short of the expectation.
func phaseLength(dur time.Duration, rate float64) time.Duration {
	if min := time.Duration(minPhaseSamples / rate * float64(time.Second)); dur < min {
		return min
	}
	return dur
}

const minPhaseSamples = 1200

// minP99Samples is the smallest sample whose p99 has ten samples
// beyond it; a p99 read from fewer is an order statistic of noise.
const minP99Samples = 1000

// p99 returns a phase's p99 latency, or an error when the phase has too
// few samples for it.
func p99(p phaseResult) (float64, error) {
	if len(p.latency) < minP99Samples {
		return 0, fmt.Errorf("%d reports at %.0f/s cannot support a p99", len(p.latency), p.rate)
	}
	return quantile(p.latency, 0.99), nil
}

// traceServe runs the heavy phase twice, without and with the
// per-layer bookkeeping, and probes each layer on the run's inputs.
func traceServe(sr *serveRun, light phaseResult, heavyDur time.Duration) error {
	rep := sr.rep
	m := rep.metrics
	m["gen.light_p50_ms"] = median(light.latency)
	var err error
	if m["gen.light_p99_ms"], err = p99(light); err != nil {
		return err
	}
	if sr.nq > 0 {
		m["policy.gbps"] = sr.gbps / sr.nq
		m["policy.energy_j"] = sr.joules / sr.nq
		m["policy.gbps_per_kj"] = sr.eff / sr.nq
	}
	plain := sr.run(heavyRate, heavyDur, 0)

	before, err := scrape(sr.rig.reg)
	if err != nil {
		return err
	}
	counters := sr.rig.ctrl.Counters().Snapshot()
	changes := sr.changes
	heavy := sr.run(heavyRate, heavyDur, 0)
	m["serve.heap_after_heavy_mb"] = liveHeapMB()
	after, err := scrape(sr.rig.reg)
	if err != nil {
		return err
	}
	const hist = "greennfv_serve_report_latency_seconds"
	serverCalls := after[hist+"_count"] - before[hist+"_count"]
	serverMeanUS := (after[hist+"_sum"] - before[hist+"_sum"]) / serverCalls * 1e6
	clientMeanUS := mean(heavy.latency) * 1000
	m["rpc.report.calls"] = float64(heavy.sent)
	m["rpc.report.errors"] = float64(heavy.errors)
	m["rpc.report.mean_us"] = clientMeanUS
	m["serve.report.server_mean_us"] = serverMeanUS
	for name, counter := range map[string]string{
		"serve.source_policy":        serve.CounterSourcePolicy,
		"serve.source_last_good":     serve.CounterSourceLastGood,
		"serve.source_hold":          serve.CounterSourceHold,
		"serve.guardrail_rejections": serve.CounterGuardrailRejections,
		"serve.state_persist_errors": serve.CounterStatePersistErrors,
	} {
		m[name] = float64(sr.rig.ctrl.Counters().Get(counter) - counters[counter])
	}
	m["serve.lastgood_changes"] = float64(sr.changes - changes)
	m["gen.sent"] = float64(heavy.sent)
	m["gen.late_p99_ms"] = quantile(heavy.late, 0.99)
	m["gen.heavy_p50_ms"] = median(heavy.latency)
	if m["gen.heavy_p99_ms"], err = p99(heavy); err != nil {
		return err
	}
	m["trace.wall_s"] = heavyDur.Seconds()
	// The controller's decision span nests inside the client's call
	// span, so the server's mean must not exceed the client's.
	share := serverMeanUS / clientMeanUS
	m["trace.attributed_share"] = share
	rep.check(serverCalls >= float64(heavy.sent-heavy.errors) && share > 0 && share <= 1+attributionTolerance,
		"server saw %.0f reports at mean %.1f us for %d replies at client mean %.1f us", serverCalls, serverMeanUS, heavy.sent-heavy.errors, clientMeanUS)
	m["trace.overhead_pct"] = 100 * (median(heavy.latency) - median(plain.latency)) / median(plain.latency)
	return probeServe(sr)
}

// scrape reads the registry's exposition text into name → value.
func scrape(reg *stats.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// probeServe times each layer of the report path on the run's own
// payloads: policy inference, the limiter, the guardrail, and a state
// save at the run's state size.
func probeServe(sr *serveRun) error {
	rig := sr.rig
	agent, err := ddpg.LoadAgentBytes(rig.blob)
	if err != nil {
		return err
	}
	probeEnv, err := rig.spec.BuildEnv(0)
	if err != nil {
		return err
	}
	var flat []payload
	for _, ps := range rig.payloads {
		flat = append(flat, ps...)
	}
	action := make([]float64, probeEnv.ActionDim())
	knobSets := make([][]perfmodel.NFKnobs, len(flat))
	for i, p := range flat {
		if err := agent.ActInto(p.obs, false, action); err != nil {
			return err
		}
		knobSets[i] = make([]perfmodel.NFKnobs, probeEnv.NumNFs())
		for j := range knobSets[i] {
			knobSets[i][j] = probeEnv.DecodeAction(action[j*env.KnobsPerNF : (j+1)*env.KnobsPerNF])
		}
	}
	m := sr.rep.metrics
	i := 0
	next := func() int { i = (i + 1) % len(flat); return i }
	if m["ddpg.act_into_us"], err = probeUS(probeCalls, func() error { return agent.ActInto(flat[next()].obs, false, action) }); err != nil {
		return err
	}
	lim := serve.DefaultLimiter()
	lim.Record(knobSets[0])
	m["serve.limiter_us"], _ = probeUS(probeCalls, func() error {
		k := next()
		lim.Record(lim.Limit(knobSets[k]))
		return nil
	})
	g := sr.guard
	m["serve.guardrail_us"], _ = probeUS(probeCalls, func() error {
		k := next()
		g.Check(knobSets[k], flat[k].traffic) // a rejection costs a check too
		return nil
	})
	store, err := serve.OpenStateStore(filepath.Join(rig.stateDir, "probe.state"))
	if err != nil {
		return err
	}
	state := &serve.ControllerState{PolicyBlob: rig.blob, PolicyVersion: 1, LastGood: map[string][]perfmodel.NFKnobs{}}
	for n := 0; n < serveNodes; n++ {
		state.LastGood[nodeID(n)] = knobSets[n*payloadsPerNode]
	}
	m["serve.state_save_us"], err = probeUS(1, func() error { return store.Save(state) })
	return err
}
