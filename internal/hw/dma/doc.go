// Package dma models the NIC DMA buffer (descriptor rings plus packet
// buffer pool) whose size is one of GreenNFV's five control knobs.
//
// The buffer interacts with the cache hierarchy through Intel Data
// Direct I/O (DDIO): the NIC DMAs packets straight into the DDIO
// partition of the LLC, so a buffer that fits inside that partition
// gives the NF chain warm packets, while an oversized buffer spills
// writes into the shared ways and evicts NF working state (the
// rise-then-fall of paper Figure 4). An undersized buffer, on the
// other hand, cannot absorb arrival bursts and drops packets at the
// NIC.
//
// # Paper mapping
//
// The DMA-buffer-size knob of equation 7 and paper Figure 4
// (throughput/energy vs DMA buffer size).
//
// # Concurrency and determinism
//
// Pure functions and plain value types: deterministic, RNG-free,
// safe to share read-only; mutation is owned by one caller.
package dma
