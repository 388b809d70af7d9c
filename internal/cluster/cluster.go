package cluster

import (
	"errors"
	"fmt"

	"greennfv/internal/perfmodel"
	"greennfv/internal/placement"
	"greennfv/internal/pool"
)

// NodeSpec is one host in the cluster: a name and a full analytic
// model (core count, LLC geometry, power profile — heterogeneity
// lives here).
type NodeSpec struct {
	Name  string
	Model perfmodel.Config
}

// LinkModel is the inter-node fabric: every cross-node service-chain
// hop pays its latency, shares its per-node-pair bandwidth, and
// charges its transfer energy.
type LinkModel struct {
	// BandwidthBps caps each node pair's aggregate cross traffic.
	BandwidthBps float64
	// LatencyNs is the one-way hop latency (NIC + switch + wire).
	LatencyNs float64
	// WattsPerGbps is the transfer cost (NIC + switch port energy).
	WattsPerGbps float64
}

// Topology is the cluster: nodes plus the fabric between them.
type Topology struct {
	Nodes []NodeSpec
	Link  LinkModel
}

// Validate reports whether the topology is well formed. All node
// models must share WindowSeconds so node and link energy integrate
// over the same measurement window.
func (t *Topology) Validate() error {
	if len(t.Nodes) == 0 {
		return errors.New("cluster: no nodes")
	}
	for i := range t.Nodes {
		if err := t.Nodes[i].Model.Validate(); err != nil {
			return fmt.Errorf("cluster: node %d (%s): %w", i, t.Nodes[i].Name, err)
		}
		if t.Nodes[i].Model.WindowSeconds != t.Nodes[0].Model.WindowSeconds {
			return fmt.Errorf("cluster: node %d window %v s != node 0 window %v s",
				i, t.Nodes[i].Model.WindowSeconds, t.Nodes[0].Model.WindowSeconds)
		}
	}
	if len(t.Nodes) > 1 {
		if t.Link.BandwidthBps <= 0 {
			return errors.New("cluster: link bandwidth must be positive")
		}
		if t.Link.LatencyNs < 0 || t.Link.WattsPerGbps < 0 {
			return errors.New("cluster: link latency/energy must be non-negative")
		}
	}
	return nil
}

// ChainLoad is one service chain plus its offered traffic.
type ChainLoad struct {
	Chain   perfmodel.ChainSpec
	Traffic perfmodel.Traffic
}

// Hop is inter-chain traffic: packets leaving chain From feed chain
// To. When the two chains sit on different nodes the hop crosses the
// fabric and pays the LinkModel costs; co-located hops are free (the
// packets stay in the shared LLC — the locality placement optimizes).
type Hop struct {
	From, To   int
	PPS        float64
	FrameBytes int
}

// Workload is the cluster's offered load: chains, the hop graph
// between them, and the end-to-end latency budget the SLA credits
// against.
type Workload struct {
	Chains []ChainLoad
	Hops   []Hop
	// LatencyBudgetNs: chains whose accumulated cross-node hop
	// latency exceeds it contribute nothing to SLA-credited
	// throughput. 0 disables the check.
	LatencyBudgetNs float64
}

// Validate reports whether the workload is well formed: named,
// uniquely-named chains, hop endpoints in range, and an acyclic hop
// graph (path latency would otherwise be unbounded).
func (w *Workload) Validate() error {
	if len(w.Chains) == 0 {
		return errors.New("cluster: no chains")
	}
	seen := map[string]bool{}
	for i := range w.Chains {
		name := w.Chains[i].Chain.Name
		if name == "" {
			return fmt.Errorf("cluster: chain %d unnamed", i)
		}
		if seen[name] {
			return fmt.Errorf("cluster: duplicate chain name %q", name)
		}
		seen[name] = true
		if len(w.Chains[i].Chain.NFs) == 0 {
			return fmt.Errorf("cluster: chain %q empty", name)
		}
	}
	for i, h := range w.Hops {
		if h.From < 0 || h.From >= len(w.Chains) || h.To < 0 || h.To >= len(w.Chains) || h.From == h.To {
			return fmt.Errorf("cluster: hop %d endpoints (%d→%d) out of range", i, h.From, h.To)
		}
		if h.PPS < 0 || h.FrameBytes <= 0 {
			return fmt.Errorf("cluster: hop %d load must be positive", i)
		}
	}
	// Cycle check: longest-path relaxation must settle within C
	// rounds on a DAG.
	depth := make([]int, len(w.Chains))
	for round := 0; ; round++ {
		changed := false
		for _, h := range w.Hops {
			if depth[h.From]+1 > depth[h.To] {
				depth[h.To] = depth[h.From] + 1
				changed = true
			}
		}
		if !changed {
			return nil
		}
		if round >= len(w.Chains) {
			return errors.New("cluster: hop graph has a cycle")
		}
	}
}

// PlacementProblem derives the offline placement instance for this
// workload on this topology: chain demands from default knob shares
// and state footprints, node capacities from each model's cores and
// CLOS-maskable LLC, affinities from the hop graph.
func (w *Workload) PlacementProblem(t *Topology) placement.Problem {
	p := placement.Problem{
		Chains: make([]placement.ChainDemand, len(w.Chains)),
		Nodes:  make([]placement.NodeCapacity, len(t.Nodes)),
	}
	for i := range w.Chains {
		c := &w.Chains[i]
		// LLC demand is a residency floor (a quarter of the state
		// working set, at least one way), not the full working set:
		// the knob policy trades the rest against miss rate, so the
		// packing only reserves the minimum that keeps a chain viable.
		llc := c.Chain.TotalStateBytes() / 4
		if llc < 1<<20 {
			llc = 1 << 20
		}
		p.Chains[i] = placement.ChainDemand{
			Name:     c.Chain.Name,
			Cores:    float64(len(c.Chain.NFs)), // default CPUShare is 1.0/NF
			LLCBytes: llc,
			FlowPPS:  c.Traffic.OfferedPPS,
		}
	}
	for i := range t.Nodes {
		p.Nodes[i] = placement.NodeCapacity{
			Cores:    float64(t.Nodes[i].Model.NumCores),
			LLCBytes: t.Nodes[i].Model.Cache.SharedBytes(),
		}
	}
	for _, h := range w.Hops {
		p.Affinities = append(p.Affinities, placement.Affinity{
			A:   w.Chains[h.From].Chain.Name,
			B:   w.Chains[h.To].Chain.Name,
			PPS: h.PPS,
		})
	}
	return p
}

// NodeResult is one host's aggregate over the window.
type NodeResult struct {
	// Chains hosted on this node.
	Chains int
	// BusyCores is Σ busy cores over the node's chains.
	BusyCores float64
	// Utilization is the node busy fraction in [0,1].
	Utilization float64
	// PowerWatts is the node's mean draw; EnergyJoules integrates it
	// over the window.
	PowerWatts   float64
	EnergyJoules float64
}

type pairAgg struct {
	a, b int
	gbps float64
}

// pairFactor is the delivery derate a cross hop between nodes na and
// nb pays: the pair's bandwidth cap over its offered traffic, 1 when
// the link keeps up.
func pairFactor(pairs []pairAgg, capGbps float64, na, nb int) float64 {
	if na > nb {
		na, nb = nb, na
	}
	for i := range pairs {
		if pairs[i].a == na && pairs[i].b == nb {
			if pairs[i].gbps > capGbps {
				return capGbps / pairs[i].gbps
			}
			return 1
		}
	}
	return 1
}

// Result is one cluster evaluation. The exported totals are what the
// SLA and the figures consume; unexported fields are zero-alloc
// scratch reused across EvaluateClusterInto calls.
type Result struct {
	// PerChain holds each chain's single-node evaluation (index
	// matches Workload.Chains). On a partial-failure return, entries
	// for chains that did evaluate are valid; the aggregates are not
	// computed.
	PerChain []perfmodel.Result
	// PerNode holds each host's aggregate (index matches
	// Topology.Nodes).
	PerNode []NodeResult
	// ThroughputGbps is delivered goodput after per-node-pair link
	// bandwidth derating propagates down the hop graph.
	ThroughputGbps float64
	// SLAGbps is the latency-credited part of ThroughputGbps: chains
	// whose cross-node path latency exceeds the budget deliver
	// nothing the SLA counts.
	SLAGbps float64
	// CrossGbps is total fabric traffic (post-cap).
	CrossGbps float64
	// NodeEnergyJ + LinkEnergyJ = EnergyJ: Σ node power × window plus
	// link transfer cost.
	NodeEnergyJ float64
	LinkEnergyJ float64
	EnergyJ     float64
	// MaxPathLatencyNs is the worst chain's accumulated cross-node
	// hop latency.
	MaxPathLatencyNs float64
	// Efficiency is SLA-credited Gbps per kilojoule.
	Efficiency float64
	// NodesUsed counts hosts with at least one chain.
	NodesUsed int

	// Scratch (capacity-reused, never shared between goroutines).
	factor  []float64
	latency []float64
	pairs   []pairAgg
	llcSum  []float64
	nodeCnt []int
	fwb     []float64
	knobBuf []perfmodel.NFKnobs
	knobEff [][]perfmodel.NFKnobs
	errs    []error
}

func growF(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

func growI(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}

// EvaluateCluster is EvaluateClusterInto with a fresh result.
func (t *Topology) EvaluateCluster(w *Workload, knobs [][]perfmodel.NFKnobs, assign []int, opt perfmodel.EvalOptions) (Result, error) {
	var res Result
	if err := t.EvaluateClusterInto(&res, w, knobs, assign, opt); err != nil {
		return Result{}, err
	}
	return res, nil
}

// EvaluateClusterInto evaluates the workload placed by assign
// (assign[c] = node index hosting chain c) under per-chain per-NF
// knobs, serially. Scratch inside res is capacity-reused, so a caller
// that evaluates in a loop (ClusterEnv, the figure drivers) performs
// no steady-state allocations. res must not be shared between
// goroutines.
//
// A node hosting exactly one chain reproduces the single-node
// perfmodel path bit-for-bit: the chain's knobs pass through
// untouched and the node totals are copied from the chain result, so
// a 1-node homogeneous cluster is byte-identical to the single-node
// path.
// Co-located chains (k > 1) share the node: their LLC fractions are
// rescaled node-wide when oversubscribed (CAT partitioning across
// chains, the same rule EvaluateInto applies within one chain) and
// the node's utilization/power aggregate over all hosted chains'
// busy cores.
func (t *Topology) EvaluateClusterInto(res *Result, w *Workload, knobs [][]perfmodel.NFKnobs, assign []int, opt perfmodel.EvalOptions) error {
	return t.evaluateCluster(res, w, knobs, assign, opt, 1)
}

// EvaluateClusterParallelInto is EvaluateClusterInto with chains
// evaluated concurrently on up to workers goroutines (<= 0 means
// GOMAXPROCS). Unlike BatchEvaluate's stop-on-first-error contract,
// every chain is always attempted: on error, the lowest-index chain
// error is returned and PerChain entries for the chains that did
// evaluate remain valid (the partial results the cluster control
// plane needs to degrade per node instead of discarding the whole
// cluster view). Aggregation is serial either way, so the result is
// bit-identical to the serial path.
func (t *Topology) EvaluateClusterParallelInto(res *Result, w *Workload, knobs [][]perfmodel.NFKnobs, assign []int, opt perfmodel.EvalOptions, workers int) error {
	return t.evaluateCluster(res, w, knobs, assign, opt, workers)
}

func (t *Topology) evaluateCluster(res *Result, w *Workload, knobs [][]perfmodel.NFKnobs, assign []int, opt perfmodel.EvalOptions, workers int) error {
	nNodes := len(t.Nodes)
	nChains := len(w.Chains)
	if nNodes == 0 {
		return errors.New("cluster: no nodes")
	}
	if len(knobs) != nChains || len(assign) != nChains {
		return fmt.Errorf("cluster: %d knob sets / %d assignments for %d chains",
			len(knobs), len(assign), nChains)
	}
	for c, n := range assign {
		if n < 0 || n >= nNodes {
			return fmt.Errorf("cluster: chain %d assigned to node %d of %d", c, n, nNodes)
		}
		if len(knobs[c]) != len(w.Chains[c].Chain.NFs) {
			return fmt.Errorf("cluster: chain %d has %d knob sets for %d NFs",
				c, len(knobs[c]), len(w.Chains[c].Chain.NFs))
		}
	}

	// Grow scratch (capacity-reused in steady state).
	if cap(res.PerChain) >= nChains {
		res.PerChain = res.PerChain[:nChains]
	} else {
		old := res.PerChain
		res.PerChain = make([]perfmodel.Result, nChains)
		copy(res.PerChain, old) // keep warm PerNF scratch
	}
	if cap(res.PerNode) >= nNodes {
		res.PerNode = res.PerNode[:nNodes]
	} else {
		res.PerNode = make([]NodeResult, nNodes)
	}
	res.factor = growF(res.factor, nChains)
	res.latency = growF(res.latency, nChains)
	res.llcSum = growF(res.llcSum, nNodes)
	res.fwb = growF(res.fwb, nNodes)
	res.nodeCnt = growI(res.nodeCnt, nNodes)
	if cap(res.errs) >= nChains {
		res.errs = res.errs[:nChains]
	} else {
		res.errs = make([]error, nChains)
	}

	// Node occupancy and node-wide LLC oversubscription.
	for n := 0; n < nNodes; n++ {
		res.llcSum[n] = 0
		res.nodeCnt[n] = 0
	}
	totalNF := 0
	for c := 0; c < nChains; c++ {
		n := assign[c]
		res.nodeCnt[n]++
		for i := range knobs[c] {
			f := knobs[c][i].LLCFraction
			if f < 0 {
				f = 0
			} else if f > 1 {
				f = 1
			}
			res.llcSum[n] += f
		}
		totalNF += len(knobs[c])
	}

	// Effective knobs: chains alone on a node keep the caller's slice
	// (the bit-parity path); co-located chains on an oversubscribed
	// node get a node-wide CAT rescale into scratch.
	res.knobBuf = res.knobBuf[:0]
	if cap(res.knobBuf) < totalNF {
		res.knobBuf = make([]perfmodel.NFKnobs, 0, totalNF)
	}
	if cap(res.knobEff) >= nChains {
		res.knobEff = res.knobEff[:nChains]
	} else {
		res.knobEff = make([][]perfmodel.NFKnobs, nChains)
	}
	for c := 0; c < nChains; c++ {
		n := assign[c]
		if res.nodeCnt[n] <= 1 || res.llcSum[n] <= 1 {
			res.knobEff[c] = knobs[c]
			continue
		}
		start := len(res.knobBuf)
		for i := range knobs[c] {
			k := knobs[c][i]
			f := k.LLCFraction
			if f < 0 {
				f = 0
			} else if f > 1 {
				f = 1
			}
			k.LLCFraction = f / res.llcSum[n]
			res.knobBuf = append(res.knobBuf, k)
		}
		res.knobEff[c] = res.knobBuf[start:len(res.knobBuf):len(res.knobBuf)]
	}

	// Per-chain evaluation — every chain is attempted even when an
	// earlier one fails, so partial per-node results survive. The
	// serial branch avoids the pool closure, keeping the hot path
	// allocation-free.
	if workers == 1 || nChains == 1 {
		for c := 0; c < nChains; c++ {
			res.errs[c] = t.Nodes[assign[c]].Model.EvaluateInto(
				&res.PerChain[c], w.Chains[c].Chain, res.knobEff[c], w.Chains[c].Traffic, opt)
		}
	} else {
		pool.ForEach(nChains, workers, func(c int) error {
			res.errs[c] = t.Nodes[assign[c]].Model.EvaluateInto(
				&res.PerChain[c], w.Chains[c].Chain, res.knobEff[c], w.Chains[c].Traffic, opt)
			return nil
		})
	}
	for c := 0; c < nChains; c++ {
		if res.errs[c] != nil {
			return fmt.Errorf("cluster: chain %d (%s): %w", c, w.Chains[c].Chain.Name, res.errs[c])
		}
	}

	// Node aggregation. One chain: copy its totals (bit-identical to
	// the single-node path). Several: re-run the single-node tail
	// over the union of the chains' busy cores.
	res.NodeEnergyJ = 0
	res.NodesUsed = 0
	for n := 0; n < nNodes; n++ {
		m := &t.Nodes[n].Model
		idleResidual := m.IdleResidualSleep
		if opt.NoSleep {
			idleResidual = m.IdleResidualBusyPoll
		}
		nr := NodeResult{Chains: res.nodeCnt[n]}
		switch {
		case res.nodeCnt[n] == 0:
			// Empty host: no chains, no mgmt threads — only the
			// C-state residual draws power.
			util := idleResidual
			if util > 1 {
				util = 1
			}
			nr.Utilization = util
			nr.PowerWatts = m.Power.Power(util, m.Power.FMin)
			nr.EnergyJoules = nr.PowerWatts * m.WindowSeconds
		case res.nodeCnt[n] == 1:
			for c := 0; c < nChains; c++ {
				if assign[c] != n {
					continue
				}
				r := &res.PerChain[c]
				nr.BusyCores = r.CPUPercent / 100
				nr.Utilization = r.Utilization
				nr.PowerWatts = r.PowerWatts
				nr.EnergyJoules = r.EnergyJoules
				break
			}
		default:
			var busySum, fw float64
			for c := 0; c < nChains; c++ {
				if assign[c] != n {
					continue
				}
				for i := range res.PerChain[c].PerNF {
					busy := res.PerChain[c].PerNF[i].BusyCores
					busySum += busy
					fw += busy * m.Power.ClampFreq(res.knobEff[c][i].FreqGHz)
				}
			}
			meanFreq := m.Power.FMin
			if busySum > 0 {
				meanFreq = fw / busySum
			}
			active := busySum + m.MgmtCores
			if active > float64(m.NumCores) {
				active = float64(m.NumCores)
			}
			util := (active + idleResidual*(float64(m.NumCores)-active)) / float64(m.NumCores)
			if util > 1 {
				util = 1
			}
			nr.BusyCores = busySum
			nr.Utilization = util
			nr.PowerWatts = m.Power.Power(util, meanFreq) + m.StaticCoreWatts*active
			nr.EnergyJoules = nr.PowerWatts * m.WindowSeconds
		}
		res.PerNode[n] = nr
		res.NodeEnergyJ += nr.EnergyJoules
		if res.nodeCnt[n] > 0 {
			res.NodesUsed++
		}
	}

	// Link aggregation: offered cross traffic per node pair, capped
	// at the pair's bandwidth; the cap derates everything riding the
	// pair.
	res.pairs = res.pairs[:0]
	for _, h := range w.Hops {
		na, nb := assign[h.From], assign[h.To]
		if na == nb {
			continue
		}
		if na > nb {
			na, nb = nb, na
		}
		gbps := h.PPS * float64(h.FrameBytes) * 8 / 1e9
		found := false
		for i := range res.pairs {
			if res.pairs[i].a == na && res.pairs[i].b == nb {
				res.pairs[i].gbps += gbps
				found = true
				break
			}
		}
		if !found {
			res.pairs = append(res.pairs, pairAgg{a: na, b: nb, gbps: gbps})
		}
	}
	capGbps := t.Link.BandwidthBps / 1e9
	window := t.Nodes[0].Model.WindowSeconds
	res.CrossGbps = 0
	res.LinkEnergyJ = 0
	for i := range res.pairs {
		carried := res.pairs[i].gbps
		if carried > capGbps {
			carried = capGbps
		}
		res.CrossGbps += carried
		res.LinkEnergyJ += carried * t.Link.WattsPerGbps * window
	}
	// Delivery factor and path latency propagate down the hop DAG
	// (longest-path / min-factor relaxation; Workload.Validate pinned
	// acyclicity, the round bound is a backstop).
	for c := 0; c < nChains; c++ {
		res.factor[c] = 1
		res.latency[c] = 0
	}
	for round := 0; ; round++ {
		changed := false
		for _, h := range w.Hops {
			f := res.factor[h.From]
			lat := res.latency[h.From]
			if assign[h.From] != assign[h.To] {
				f *= pairFactor(res.pairs, capGbps, assign[h.From], assign[h.To])
				lat += t.Link.LatencyNs
			}
			if f < res.factor[h.To] {
				res.factor[h.To] = f
				changed = true
			}
			if lat > res.latency[h.To] {
				res.latency[h.To] = lat
				changed = true
			}
		}
		if !changed {
			break
		}
		if round > nChains {
			return errors.New("cluster: hop graph has a cycle")
		}
	}

	res.ThroughputGbps = 0
	res.SLAGbps = 0
	res.MaxPathLatencyNs = 0
	for c := 0; c < nChains; c++ {
		delivered := res.PerChain[c].ThroughputGbps * res.factor[c]
		res.ThroughputGbps += delivered
		if w.LatencyBudgetNs <= 0 || res.latency[c] <= w.LatencyBudgetNs {
			res.SLAGbps += delivered
		}
		if res.latency[c] > res.MaxPathLatencyNs {
			res.MaxPathLatencyNs = res.latency[c]
		}
	}
	res.EnergyJ = res.NodeEnergyJ + res.LinkEnergyJ
	res.Efficiency = 0
	if res.EnergyJ > 0 {
		res.Efficiency = res.SLAGbps / (res.EnergyJ / 1000)
	}
	return nil
}
