// Package cpu models the processor-side control surface GreenNFV
// tunes: per-core DVFS (the cpufrequtils userspace governor of the
// paper), power governors, C-state sleeping for idle NFs, and
// cgroup-style CPU shares.
//
// The model mirrors the paper's testbed: dual-socket Intel Xeon
// E5-2620 v4 with 8 cores per socket (16 total) and a DVFS ladder
// from 1.2 GHz to 2.1 GHz in 100 MHz steps.
//
// # Paper mapping
//
// The CPU-share and core-frequency knobs of equation 7, the
// frequency sweep of paper Figure 2, and the C-state policy axis of
// the Figure 9 platform variants (busy-poll disables sleeping).
//
// # Concurrency and determinism
//
// Deterministic, RNG-free state machines; NOT goroutine-safe. A
// Processor and its share scheduler belong to one owner, which
// serializes access.
package cpu
