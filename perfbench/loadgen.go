package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The open-loop generator: reports are sent on a Poisson schedule
// fixed before the phase starts, whether or not earlier replies have
// arrived, as a fleet of independent nodes would send them. Each
// report's latency is timed from when it was due, so a stall counts
// against every report queued behind it; the generator's own lateness
// (sent - due) is reported beside it.

// request is one scheduled report.
type request struct {
	due  time.Duration // offset from the phase start
	node int
	seq  int // the node's report number, which picks its payload
}

// schedule draws Poisson arrivals at rate per second for dur, assigning
// them to nodes round-robin. next holds each node's report count and
// is advanced, so payloads keep cycling across phases.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, next []int) []request {
	var reqs []request
	t := 0.0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return reqs
		}
		node := i % len(next)
		reqs = append(reqs, request{due: time.Duration(t * float64(time.Second)), node: node, seq: next[node]})
		next[node]++
	}
}

// sendFunc performs request i.
type sendFunc func(i int, r request) error

// phaseResult is one phase's outcome. Latencies are in milliseconds,
// indexed like reqs; a failed request counts as failedLatencyMS.
type phaseResult struct {
	rate         float64
	reqs         []request
	sent, errors int
	latency      []float64
	late         []float64
	// backlog is the number of requests still in flight when the
	// last one was sent.
	backlog int
	// aborted is set when sending stopped early at the in-flight cap.
	aborted bool
	// firstErr is one of the errors, for diagnosis.
	firstErr error
}

// failedLatencyMS is the latency charged to a failed or timed-out
// request: the call deadline, above any latency limit.
const failedLatencyMS = 1000

// runPhase sends reqs on schedule, one goroutine per request, and
// waits for every reply. With maxInflight > 0 it stops sending once more
// requests than that are in flight, so an overloaded probe ends before
// its backlog reaches the call deadline; the unsent rest is dropped from
// the result.
func runPhase(reqs []request, rate float64, maxInflight int, send sendFunc) phaseResult {
	res := phaseResult{rate: rate}
	latency := make([]float64, len(reqs))
	late := make([]float64, len(reqs))
	var wg sync.WaitGroup
	var inflight atomic.Int64
	var mu sync.Mutex // guards res.errors and res.firstErr
	sent := 0
	start := time.Now()
	for i, r := range reqs {
		if maxInflight > 0 && inflight.Load() > int64(maxInflight) {
			res.aborted = true
			break
		}
		due := start.Add(r.due)
		waitUntil(due)
		late[i] = ms(time.Since(due))
		inflight.Add(1)
		wg.Add(1)
		sent++
		go func(i int, r request, due time.Time) {
			defer wg.Done()
			err := send(i, r)
			latency[i] = ms(time.Since(due))
			inflight.Add(-1)
			if err != nil {
				latency[i] = failedLatencyMS
				mu.Lock()
				res.errors++
				if res.firstErr == nil {
					res.firstErr = err
				}
				mu.Unlock()
			}
		}(i, r, due)
	}
	res.backlog = int(inflight.Load())
	wg.Wait()
	res.sent, res.reqs = sent, reqs[:sent]
	res.latency, res.late = latency[:sent], late[:sent]
	return res
}

// waitUntil returns at t. The runtime's own timers wake an idle
// process up to a millisecond late, which would be charged to the
// system as latency; a nanosleep blocks just this thread on a precise
// kernel timer while the runtime hands its processor to other work. A
// signal (the runtime preempts with them) ends a nanosleep early.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sustainable reports whether a phase met the latency limit at its
// p99 with no failures and no growing backlog: at the end of sending,
// no more requests may be in flight than the rate sustains within the
// limit (Little's law), and at least one.
func (p phaseResult) sustainable(limitMS float64) bool {
	if p.aborted || p.errors > 0 || p.sent == 0 {
		return false
	}
	if quantile(p.latency, 0.99) > limitMS {
		return false
	}
	return float64(p.backlog) <= math.Max(1, p.rate*limitMS/1000)
}

// searchMaxRate brackets the highest sustainable rate to a fixed
// resolution. It steps the rate up (or down) by factor from start until
// the verdict flips, at most maxBracketSteps times, then bisects
// geometrically between the highest passing and the lowest failing
// rate bisections times, which leaves them exactly
// factor^(1/2^bisections) apart whatever the host's speed. probe runs
// one step at a rate and returns its verdict; a rate fails only when
// two probes of it in a row fail, so one stall of the host does not
// send the search far below the knee. It returns the highest
// passing rate lo and the lowest failing rate hi: lo is 0 when no
// probed rate passed, hi +Inf when none failed.
func searchMaxRate(start, factor float64, bisections int, probe func(rate float64) bool) (lo, hi float64) {
	lo, hi = 0, math.Inf(1)
	try := func(rate float64) {
		if probe(rate) || probe(rate) {
			lo = rate
		} else {
			hi = rate
		}
	}
	rate := start
	for i := 0; i < maxBracketSteps && (lo == 0 || math.IsInf(hi, 1)); i++ {
		try(rate)
		if lo == 0 {
			rate /= factor
		} else {
			rate *= factor
		}
	}
	if lo == 0 || math.IsInf(hi, 1) {
		return lo, hi
	}
	for i := 0; i < bisections; i++ {
		try(math.Sqrt(lo * hi))
	}
	return lo, hi
}

// maxBracketSteps bounds the search's first stage: a factor of 1.5
// brackets any knee within 25x of the start.
const maxBracketSteps = 8

// staircase walks the rate from start by a fixed step, up after a
// probe passes and down after one fails, for n probes, and returns the
// geometric mean of the rates it probed: an estimate of the rate at
// which half the probes pass. A knee that moves with the host's load
// makes single verdicts noisy; the walk averages them at a resolution
// set by step alone.
func staircase(start, step float64, n int, probe func(rate float64) bool) float64 {
	rate, logSum := start, 0.0
	for i := 0; i < n; i++ {
		logSum += math.Log(rate)
		if probe(rate) {
			rate *= step
		} else {
			rate /= step
		}
	}
	return math.Exp(logSum / float64(n))
}
