// Package cache models the shared last-level cache (LLC) and Intel
// Cache Allocation Technology (CAT) controls GreenNFV uses to
// partition it between NF service chains.
//
// The model follows the paper's testbed part (Xeon E5-2620 v4: 20 MB
// LLC organized as 20 ways of 1 MB) and Intel's CAT semantics:
// software defines Classes of Service (CLOS), each with a capacity
// bitmask (CBM) selecting which ways the class may fill. CBMs must be
// contiguous runs of set bits (an Intel hardware requirement), ways
// may be shared between classes (shared ways are contended), and by
// convention the top 10% of the LLC is reserved for Data Direct I/O
// (DDIO), the region NIC DMA writes land in.
//
// # Paper mapping
//
// The LLC-allocation knob of equation 7 and the miss-rate behaviour
// behind paper Figure 1 (throughput/energy vs LLC share); DDIO
// interaction feeds the Figure 4 DMA-buffer curve via internal/hw/dma.
//
// # Concurrency and determinism
//
// Pure state machines with no RNG and no goroutine-safety: a CAT
// controller belongs to one owner, and all queries are deterministic
// functions of the configured bitmasks.
package cache
