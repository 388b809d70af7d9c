package main

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestSearchMaxRateFixedResolution(t *testing.T) {
	want := math.Pow(1.5, 1.0/16)
	refine := math.Pow(1.5, 1.0/4)
	for _, knee := range []float64{700, 5000, 16000, 41000} {
		lo, hi := searchMaxRate(4000, 1.5, 4, func(rate float64) bool { return rate <= knee })
		if lo > knee || hi <= knee || math.Abs(hi/lo-want) > 1e-9 {
			t.Errorf("knee %v: search returned [%v, %v], want a bracket of ratio %v", knee, lo, hi, want)
		}
		// A later search starts from the result with a narrower step
		// and ends at the same resolution.
		lo2, hi2 := searchMaxRate(lo, refine, 2, func(rate float64) bool { return rate <= knee })
		if lo2 > knee || hi2 <= knee || math.Abs(hi2/lo2-want) > 1e-9 {
			t.Errorf("knee %v: refined search returned [%v, %v], want a bracket of ratio %v", knee, lo2, hi2, want)
		}
	}
}

func TestStaircaseSettlesOnKnee(t *testing.T) {
	step := math.Pow(1.5, 1.0/16)
	for _, knee := range []float64{9000, 25000} {
		probes := 0
		got := staircase(knee*1.04, step, 12, func(rate float64) bool { probes++; return rate <= knee })
		if probes != 12 || got < knee/step/step || got > knee*step*step {
			t.Errorf("knee %v: staircase returned %v after %d probes, want within two steps", knee, got, probes)
		}
	}
}

func TestSearchMaxRateRetriesOneFailure(t *testing.T) {
	calls := map[float64]int{}
	lo, hi := searchMaxRate(1000, 2, 6, func(rate float64) bool {
		calls[rate]++
		if rate == 2000 && calls[rate] == 1 {
			return false // one stall of the host
		}
		return rate <= 3000
	})
	if lo > 3000 || hi <= 3000 || hi/lo > 1.03 {
		t.Errorf("search returned [%v, %v] after one spurious failure, want a bracket of 3000", lo, hi)
	}
	if calls[2000] != 2 {
		t.Errorf("rate 2000 probed %d times, want a retry", calls[2000])
	}
}

func TestSearchMaxRateNoKnee(t *testing.T) {
	probes := 0
	lo, hi := searchMaxRate(1000, 2, 4, func(float64) bool { probes++; return false })
	if lo != 0 || hi != 1000/math.Pow(2, maxBracketSteps-1) || probes != 2*maxBracketSteps {
		t.Errorf("search with no passing rate returned [%v, %v] after %d probes", lo, hi, probes)
	}
	probes = 0
	lo, hi = searchMaxRate(1000, 2, 4, func(float64) bool { probes++; return true })
	if !math.IsInf(hi, 1) || lo != 1000*math.Pow(2, maxBracketSteps-1) || probes != maxBracketSteps {
		t.Errorf("always-passing search returned [%v, %v] after %d probes", lo, hi, probes)
	}
}

func TestScheduleIsSeededPoisson(t *testing.T) {
	next1, next2 := make([]int, 4), make([]int, 4)
	a := schedule(rand.New(rand.NewSource(9)), 2000, 2*time.Second, next1)
	b := schedule(rand.New(rand.NewSource(9)), 2000, 2*time.Second, next2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if n := float64(len(a)); math.Abs(n-4000) > 4*math.Sqrt(4000) {
		t.Errorf("%v arrivals at 2000/s for 2s", n)
	}
	for i, r := range a {
		if r.node != i%4 || r.seq != i/4 {
			t.Fatalf("request %d went to node %d seq %d", i, r.node, r.seq)
		}
		if i > 0 && r.due < a[i-1].due || r.due >= 2*time.Second {
			t.Fatalf("request %d due at %v out of order", i, r.due)
		}
	}
	if next1[0] != (len(a)+3)/4 {
		t.Errorf("node 0 advanced to %d after %d requests", next1[0], len(a))
	}
}

func TestRunPhaseChargesFailures(t *testing.T) {
	reqs := schedule(rand.New(rand.NewSource(1)), 2000, 100*time.Millisecond, make([]int, 2))
	boom := errors.New("boom")
	p := runPhase(reqs, 2000, 0, func(i int, r request) error {
		if i%10 == 0 {
			return boom
		}
		return nil
	})
	wantErrs := (len(reqs) + 9) / 10
	if p.sent != len(reqs) || p.errors != wantErrs || !errors.Is(p.firstErr, boom) {
		t.Fatalf("sent %d errors %d first %v; want %d, %d, boom", p.sent, p.errors, p.firstErr, len(reqs), wantErrs)
	}
	for i, l := range p.latency {
		if i%10 == 0 && l != failedLatencyMS {
			t.Fatalf("failed request %d charged %v ms", i, l)
		}
		if i%10 != 0 && (l < 0 || l >= failedLatencyMS) {
			t.Fatalf("request %d latency %v ms", i, l)
		}
	}
	if p.sustainable(50) {
		t.Error("a phase with failures counted as sustainable")
	}
}

func TestRunPhaseStopsAtInflightCap(t *testing.T) {
	reqs := schedule(rand.New(rand.NewSource(1)), 5000, 200*time.Millisecond, make([]int, 2))
	release := make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(release) })
	p := runPhase(reqs, 5000, 20, func(i int, r request) error {
		<-release // a stalled server
		return nil
	})
	if !p.aborted || p.sent != 21 || len(p.latency) != 21 || len(p.reqs) != 21 || p.errors != 0 {
		t.Fatalf("aborted %v after %d sends (%d latencies, %d errors); want 21 sends of %d", p.aborted, p.sent, len(p.latency), p.errors, len(reqs))
	}
	if p.sustainable(1000) {
		t.Error("an aborted phase counted as sustainable")
	}
}

func TestSustainable(t *testing.T) {
	ok := phaseResult{rate: 1000, sent: 100, latency: make([]float64, 100)}
	if !ok.sustainable(10) {
		t.Error("idle phase not sustainable")
	}
	slow := ok
	slow.latency = append([]float64(nil), ok.latency...)
	for i := 0; i < 2; i++ {
		slow.latency[i] = 11
	}
	if slow.sustainable(10) {
		t.Error("p99 over the limit counted as sustainable")
	}
	backlog := ok
	backlog.backlog = 11 // 1000/s for 10 ms sustains 10 in flight
	if backlog.sustainable(10) {
		t.Error("a growing backlog counted as sustainable")
	}
}
