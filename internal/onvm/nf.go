package onvm

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
)

// Verdict is a handler's per-packet decision.
type Verdict int

// Verdicts, mirroring OpenNetVM's packet actions.
const (
	// VerdictForward passes the packet to the next chain stage.
	VerdictForward Verdict = iota
	// VerdictDrop discards the packet.
	VerdictDrop
)

// CostModel describes a handler's computational profile. The
// performance model uses it to derive service times and cache
// working sets for the simulated testbed, so heavier NFs (IDS,
// crypto) genuinely cost more than light ones (NAT, firewall),
// matching the paper's observation that NFs range from lightweight
// to heavyweight.
type CostModel struct {
	// CyclesPerPacket is the fixed per-packet instruction cost.
	CyclesPerPacket float64
	// CyclesPerByte is the payload-touching cost (crypto, DPI).
	CyclesPerByte float64
	// StateBytes is the NF's cache-resident state (tables, rings).
	StateBytes int64
}

// Handler is a network function's packet-processing logic.
type Handler interface {
	// Name identifies the NF for stats and CAT group assignment.
	Name() string
	// Handle processes one packet in place and returns a verdict.
	Handle(m *Mbuf) Verdict
	// Cost reports the handler's computational profile.
	Cost() CostModel
}

// NFStats counts a network function's activity. All fields are
// atomically updated and may be read concurrently.
type NFStats struct {
	RxPackets   atomic.Uint64
	TxPackets   atomic.Uint64
	Dropped     atomic.Uint64 // verdict drops
	RingDrops   atomic.Uint64 // downstream ring full while stopping
	Wakeups     atomic.Uint64
	PollRounds  atomic.Uint64
	EmptyPolls  atomic.Uint64
	BatchesSeen atomic.Uint64
}

// Snapshot returns a plain-value copy of the counters.
func (s *NFStats) Snapshot() NFStatsSnapshot {
	return NFStatsSnapshot{
		RxPackets:   s.RxPackets.Load(),
		TxPackets:   s.TxPackets.Load(),
		Dropped:     s.Dropped.Load(),
		RingDrops:   s.RingDrops.Load(),
		Wakeups:     s.Wakeups.Load(),
		PollRounds:  s.PollRounds.Load(),
		EmptyPolls:  s.EmptyPolls.Load(),
		BatchesSeen: s.BatchesSeen.Load(),
	}
}

// NFStatsSnapshot is a point-in-time copy of NFStats.
type NFStatsSnapshot struct {
	RxPackets, TxPackets, Dropped, RingDrops uint64
	Wakeups, PollRounds, EmptyPolls          uint64
	BatchesSeen                              uint64
}

// NF is one deployed network function instance: a handler plus its
// RX ring, a reference to the next stage, runtime knobs and stats.
type NF struct {
	handler Handler
	rx      *Ring
	stats   NFStats

	// batch is the dequeue burst size — the paper's batch-size knob.
	batch atomic.Int64

	// wake is the callback half of the poll/callback mix: the
	// upstream stage signals it after enqueueing into an empty ring
	// so a sleeping NF resumes without busy-polling.
	wake chan struct{}

	// next is the downstream ring (nil for the chain tail, in which
	// case packets complete and are freed by the worker).
	next *NF
}

// NewNF wraps a handler with an RX ring of the given capacity.
func NewNF(h Handler, ringCap, batch int) (*NF, error) {
	if h == nil {
		return nil, errors.New("onvm: nil handler")
	}
	rx, err := NewRing(ringCap)
	if err != nil {
		return nil, fmt.Errorf("onvm: %s: %w", h.Name(), err)
	}
	nf := &NF{handler: h, rx: rx, wake: make(chan struct{}, 1)}
	if err := nf.SetBatch(batch); err != nil {
		return nil, err
	}
	return nf, nil
}

// Name reports the handler name.
func (nf *NF) Name() string { return nf.handler.Name() }

// Handler returns the wrapped handler.
func (nf *NF) Handler() Handler { return nf.handler }

// Stats exposes the NF's counters.
func (nf *NF) Stats() *NFStats { return &nf.stats }

// SetBatch updates the dequeue burst size at runtime (1–1024).
func (nf *NF) SetBatch(n int) error {
	if n < 1 || n > 1024 {
		return fmt.Errorf("onvm: batch %d outside [1,1024]", n)
	}
	nf.batch.Store(int64(n))
	return nil
}

// Batch reports the current dequeue burst size.
func (nf *NF) Batch() int { return int(nf.batch.Load()) }

// RingLen reports the RX ring occupancy.
func (nf *NF) RingLen() int { return nf.rx.Len() }

// deliver enqueues a packet into this NF's RX ring and signals the
// wakeup channel (the callback half of the poll/callback mix). The
// signal is unconditional — a conditional "only when the ring was
// empty" check races with the consumer's drain-then-park sequence and
// can strand a packet; the buffered channel makes the unconditional
// try-send cheap. It reports false when the ring was full.
func (nf *NF) deliver(m *Mbuf) bool {
	if !nf.rx.Enqueue(m) {
		return false
	}
	select {
	case nf.wake <- struct{}{}:
	default:
	}
	return true
}

// forward hands m to the next stage with back-pressure: while the
// downstream ring is full it yields and retries, so a chain completes
// every packet it accepted. It gives up, reporting false, only once
// done is closed and the NF is stopping.
func (nf *NF) forward(m *Mbuf, done <-chan struct{}) bool {
	for !nf.next.deliver(m) {
		select {
		case <-done:
			return false
		default:
			runtime.Gosched()
		}
	}
	return true
}

// processBurst dequeues and handles up to one batch, forwarding
// survivors downstream (or freeing them at the chain tail). It
// reports the number of packets taken off the ring.
func (nf *NF) processBurst(scratch []*Mbuf, done <-chan struct{}) int {
	b := nf.Batch()
	if b > len(scratch) {
		b = len(scratch)
	}
	n := nf.rx.DequeueBurst(scratch[:b])
	if n == 0 {
		nf.stats.EmptyPolls.Add(1)
		return 0
	}
	nf.stats.BatchesSeen.Add(1)
	nf.stats.RxPackets.Add(uint64(n))
	for i := 0; i < n; i++ {
		m := scratch[i]
		scratch[i] = nil
		if nf.handler.Handle(m) == VerdictDrop {
			nf.stats.Dropped.Add(1)
			m.Free()
			continue
		}
		m.ChainPos++
		if nf.next == nil {
			nf.stats.TxPackets.Add(1)
			m.Free()
			continue
		}
		if !nf.forward(m, done) {
			nf.stats.RingDrops.Add(1)
			m.Free()
			continue
		}
		nf.stats.TxPackets.Add(1)
	}
	return n
}
