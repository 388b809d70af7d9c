package onvm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Source feeds frames into the manager's RX path: the interface a
// traffic generator implements. NextFrame returns the frame bytes,
// its arrival timestamp (simulation seconds) and false when the
// source is exhausted. The returned slice may be reused by the
// source; the manager copies it into an mbuf immediately.
type Source interface {
	NextFrame() (frame []byte, arrival float64, ok bool)
}

// ManagerConfig sizes the manager.
type ManagerConfig struct {
	// PoolSize is the mempool capacity in mbufs (the DMA buffer
	// stand-in: exhaustion is an RX drop).
	PoolSize int
	// PollSpins is how many empty poll rounds an NF worker spins
	// before parking on its wakeup channel — the "mix of callback and
	// polling" the paper implements. 0 parks immediately (pure
	// callback); large values approximate DPDK busy-polling.
	PollSpins int
	// DrainTimeout bounds how long Run waits for in-flight packets
	// after the source ends.
	DrainTimeout time.Duration
}

// DefaultManagerConfig returns production-like defaults.
func DefaultManagerConfig() ManagerConfig {
	return ManagerConfig{PoolSize: 8192, PollSpins: 64, DrainTimeout: 5 * time.Second}
}

// ManagerStats aggregates RX-path counters.
type ManagerStats struct {
	RxPackets      atomic.Uint64
	RxDropsNoMbuf  atomic.Uint64 // mempool exhausted (DMA buffer full)
	RxDropsRing    atomic.Uint64 // first NF ring full
	RxDropsTooLong atomic.Uint64 // frame exceeds mbuf capacity
}

// Manager is the ONVM controller: it owns the mempool, runs one
// worker goroutine per NF, moves RX traffic into chain heads, and
// exposes the knobs GreenNFV tunes at runtime.
type Manager struct {
	cfg    ManagerConfig
	pool   *Mempool
	chains []*Chain
	stats  ManagerStats

	mu      sync.Mutex
	running bool
}

// NewManager builds a manager over the given chains.
func NewManager(cfg ManagerConfig, chains ...*Chain) (*Manager, error) {
	if len(chains) == 0 {
		return nil, errors.New("onvm: manager needs at least one chain")
	}
	if cfg.PollSpins < 0 {
		return nil, errors.New("onvm: PollSpins cannot be negative")
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	pool, err := NewMempool(cfg.PoolSize)
	if err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg, pool: pool, chains: chains}, nil
}

// Stats exposes the manager's RX counters.
func (mgr *Manager) Stats() *ManagerStats { return &mgr.stats }

// Pool exposes the mempool (to resize experiments' DMA model).
func (mgr *Manager) Pool() *Mempool { return mgr.pool }

// Chains returns the managed chains.
func (mgr *Manager) Chains() []*Chain { return mgr.chains }

// RunResult summarizes one Run invocation.
type RunResult struct {
	// Injected is the number of frames accepted into the pipeline.
	Injected uint64
	// Completed is the number of packets that traversed their whole
	// chain.
	Completed uint64
	// Duration is the wall-clock processing time.
	Duration time.Duration
	// VirtualSpan is the simulated time span of the injected traffic
	// (last arrival − first arrival).
	VirtualSpan float64
	// Drained reports whether all in-flight packets completed before
	// the drain timeout.
	Drained bool
}

// Run injects up to maxPackets frames from each source (one source
// per chain, positionally matched) through the pipeline, waits for
// the pipeline to drain, and returns a summary. Run is serialized:
// concurrent calls error.
func (mgr *Manager) Run(sources []Source, maxPackets int) (RunResult, error) {
	if len(sources) != len(mgr.chains) {
		return RunResult{}, fmt.Errorf("onvm: %d sources for %d chains", len(sources), len(mgr.chains))
	}
	mgr.mu.Lock()
	if mgr.running {
		mgr.mu.Unlock()
		return RunResult{}, errors.New("onvm: manager already running")
	}
	mgr.running = true
	mgr.mu.Unlock()
	defer func() {
		mgr.mu.Lock()
		mgr.running = false
		mgr.mu.Unlock()
	}()

	done := make(chan struct{})
	var workers sync.WaitGroup
	for _, chain := range mgr.chains {
		for _, nf := range chain.NFs() {
			workers.Add(1)
			go func(nf *NF) {
				defer workers.Done()
				mgr.nfWorker(nf, done)
			}(nf)
		}
	}

	start := time.Now()
	var injected uint64

	// RX: one goroutine per chain so sources interleave like
	// independent NIC queues. Each tracks its own arrival span;
	// spans merge after the join.
	type rxSpan struct {
		first, last float64
		set         bool
	}
	spans := make([]rxSpan, len(mgr.chains))
	var rx sync.WaitGroup
	for i, chain := range mgr.chains {
		rx.Add(1)
		go func(src Source, head *NF, span *rxSpan) {
			defer rx.Done()
			for n := 0; n < maxPackets; n++ {
				frame, arrival, ok := src.NextFrame()
				if !ok {
					return
				}
				mgr.rxOne(frame, arrival, head)
				if !span.set {
					span.first, span.set = arrival, true
				}
				if arrival > span.last {
					span.last = arrival
				}
				atomic.AddUint64(&injected, 1)
				// Yield periodically, and back off when the head ring
				// saturates, so NF workers get scheduled even on a
				// single-core host (the NIC would pace arrivals in
				// real time; as-fast-as-possible injection must not
				// starve the pipeline).
				if n&63 == 63 || head.RingLen() > head.rx.Cap()/2 {
					runtime.Gosched()
				}
			}
		}(sources[i], chain.Head(), &spans[i])
	}
	rx.Wait()

	// Drain: wait for every mbuf to return to the pool.
	drained := mgr.waitDrain()
	close(done)
	workers.Wait()

	var completed uint64
	for _, chain := range mgr.chains {
		completed += chain.Completed()
	}
	var firstArrival, lastArrival float64
	anySet := false
	for _, s := range spans {
		if !s.set {
			continue
		}
		if !anySet || s.first < firstArrival {
			firstArrival = s.first
		}
		if s.last > lastArrival {
			lastArrival = s.last
		}
		anySet = true
	}
	return RunResult{
		Injected:    atomic.LoadUint64(&injected),
		Completed:   completed,
		Duration:    time.Since(start),
		VirtualSpan: lastArrival - firstArrival,
		Drained:     drained,
	}, nil
}

// rxOne copies one frame into an mbuf and delivers it to a chain
// head, accounting drops by cause.
func (mgr *Manager) rxOne(frame []byte, arrival float64, head *NF) {
	if len(frame) > MbufSize-Headroom {
		mgr.stats.RxDropsTooLong.Add(1)
		return
	}
	m := mgr.pool.Get()
	if m == nil {
		mgr.stats.RxDropsNoMbuf.Add(1)
		return
	}
	buf, err := m.Reset(len(frame))
	if err != nil {
		m.Free()
		mgr.stats.RxDropsTooLong.Add(1)
		return
	}
	copy(buf, frame)
	m.Arrival = arrival
	if !head.deliver(m) {
		m.Free()
		mgr.stats.RxDropsRing.Add(1)
		return
	}
	mgr.stats.RxPackets.Add(1)
}

// nfWorker is an NF's processing loop: poll up to PollSpins empty
// rounds, then park on the wakeup channel until the upstream stage
// signals — the paper's hybrid of poll-mode DPDK and callbacks.
func (mgr *Manager) nfWorker(nf *NF, done <-chan struct{}) {
	scratch := make([]*Mbuf, 1024)
	idle := 0
	for {
		n := nf.processBurst(scratch, done)
		nf.stats.PollRounds.Add(1)
		if n > 0 {
			idle = 0
			continue
		}
		idle++
		if idle < mgr.cfg.PollSpins {
			select {
			case <-done:
				// Final sweep so no packet is stranded mid-ring.
				for nf.processBurst(scratch, done) > 0 {
				}
				return
			default:
				runtime.Gosched()
			}
			continue
		}
		select {
		case <-nf.wake:
			nf.stats.Wakeups.Add(1)
			idle = 0
		case <-done:
			for nf.processBurst(scratch, done) > 0 {
			}
			return
		}
	}
}

// waitDrain blocks until every mbuf has returned to the pool or the
// configured timeout elapses, reporting success.
func (mgr *Manager) waitDrain() bool {
	deadline := time.Now().Add(mgr.cfg.DrainTimeout)
	for time.Now().Before(deadline) {
		if mgr.pool.Available() == mgr.pool.Size() {
			return true
		}
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
	}
	return mgr.pool.Available() == mgr.pool.Size()
}

// GeneratorSource adapts a traffic generator ("NextFrame" budget is
// enforced by Run) to the Source interface.
type GeneratorSource struct {
	// Next returns the same triple as Source.NextFrame.
	Next func() (frame []byte, arrival float64, ok bool)
}

// NextFrame implements Source.
func (g *GeneratorSource) NextFrame() ([]byte, float64, bool) { return g.Next() }
