// Command perfbench is the GreenNFV benchmark: it trains and serves
// GreenNFV policies on one of three seeded workloads and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) as the
// last line of standard output, in one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"ops_per_s": {"value": 2101.7, "unit": "1/s"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it inside the checkout:
//
//	bash perfbench/run.sh --workload train-node --seed 1 --seconds 15 --trace 0
//
// See perfbench/README.md for the workloads, metrics and checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every
// workload. BENCHMARK.json lists the same names (checked by
// TestBenchmarkJSONMatches).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"ops_per_s", "1/s"},
}

// perLayer are the metrics every traced run prints. A layer a workload
// does not run reads 0.
var perLayer = []metricSpec{
	{"apex.actor_step.calls", "count"},
	{"apex.actor_step.busy_s", "s"},
	{"apex.learn_step.calls", "count"},
	{"apex.learn_step.busy_s", "s"},
	{"apex.push.calls", "count"},
	{"apex.push.transitions", "count"},
	{"apex.push.busy_s", "s"},
	{"apex.pull.calls", "count"},
	{"apex.pull.syncs", "count"},
	{"apex.pull.bytes", "B"},
	{"apex.pull.busy_s", "s"},
	{"env.step.calls", "count"},
	{"env.step.busy_s", "s"},
	{"replay.add.transitions", "count"},
	{"replay.add.busy_s", "s"},
	{"replay.sample.calls", "count"},
	{"replay.sample.busy_s", "s"},
	{"replay.update.busy_s", "s"},
	{"ddpg.learn.self_s", "s"},
	{"ddpg.act.self_s", "s"},
	{"perfmodel.evaluate_us", "us"},
	{"cluster.evaluate_us", "us"},
	{"placement.solve_us", "us"},
	{"policy.gbps", "Gbps"},
	{"policy.energy_j", "J"},
	{"policy.gbps_per_kj", "Gbps/kJ"},
	{"policy.speedup_vs_baseline", "ratio"},
	{"policy.energy_vs_baseline", "ratio"},
	{"rpc.report.calls", "count"},
	{"rpc.report.errors", "count"},
	{"rpc.report.mean_us", "us"},
	{"serve.report.server_mean_us", "us"},
	{"serve.source_policy", "count"},
	{"serve.source_last_good", "count"},
	{"serve.source_hold", "count"},
	{"serve.guardrail_rejections", "count"},
	{"serve.state_persist_errors", "count"},
	{"serve.lastgood_changes", "count"},
	{"ddpg.act_into_us", "us"},
	{"serve.limiter_us", "us"},
	{"serve.guardrail_us", "us"},
	{"serve.state_save_us", "us"},
	{"serve.heap_after_heavy_mb", "MB"},
	{"gen.sent", "count"},
	{"gen.late_p99_ms", "ms"},
	{"gen.light_p50_ms", "ms"},
	{"gen.light_p99_ms", "ms"},
	{"gen.heavy_p50_ms", "ms"},
	{"gen.heavy_p99_ms", "ms"},
	{"trace.wall_s", "s"},
	{"trace.attributed_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

// options are the command-line inputs every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir is a private scratch directory inside the checkout.
	workDir string
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int
	// problems lists failed output checks; any entry makes the run
	// incorrect.
	problems []string
	metrics  map[string]float64
	// heap records the peak live heap at the workload's checkpoints.
	heap heapPeak
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*report, error){
	"train-node":    runTrainNode,
	"train-cluster": runTrainCluster,
	"serve":         runServe,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "train-node, train-cluster or serve")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	workDir := flag.String("workdir", ".bench_build/run", "scratch directory (created, then removed)")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload train-node|train-cluster|serve, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*workDir, o.workload+"-")
	if err != nil {
		fatal(err)
	}
	o.workDir = dir
	stampEnvironment(o)

	rep, err := run(o)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	if !o.trace {
		rep.metrics["peak_heap_mb"] = rep.heap.mb()
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	if err := printResult(os.Stdout, rep, specs, !o.trace); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// stampEnvironment prints what the numbers depend on, as one JSON line
// ahead of the result.
func stampEnvironment(o options) {
	stamp := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	b, _ := json.Marshal(map[string]any{"environment": stamp})
	fmt.Println(string(b))
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// where that file does not exist).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes the failed checks to stderr and the result
// object as the last stdout line. Every spec'd metric is printed;
// end-to-end metrics must have been measured and be positive, layer
// metrics a workload does not exercise read 0.
func printResult(f *os.File, rep *report, specs []metricSpec, requirePositive bool) error {
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload attempted nothing")
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (requirePositive && (!ok || v <= 0)) {
			return fmt.Errorf("metric %s not measured (value %v)", s.name, v)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(b))
	return err
}

// heapPeak records the largest live heap seen at the checkpoints a
// workload marks.
type heapPeak struct{ max float64 }

func (h *heapPeak) checkpoint() { h.max = math.Max(h.max, liveHeapMB()) }

func (h *heapPeak) mb() float64 { return h.max }

// liveHeapMB forces one full collection and returns the live heap it
// found, so the figure is the memory the program holds at that point,
// not an accident of when the collector last ran. One collection, not
// two: what a sync.Pool held survives the first in the pool's victim
// cache, and memory a pool holds is memory the program holds.
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}
