// Package nn is a small, dependency-free neural-network library: the
// dense multilayer perceptrons, Adam optimizer and gob checkpointing
// that GreenNFV's DDPG actor and critic are built from. It replaces
// the paper's Python 3.6 + TensorFlow learner with a pure-Go
// implementation sized for the problem (networks of a few thousand
// parameters, trained on one machine).
//
// # Paper mapping
//
// The actor/critic MLPs of Algorithm 2 (§4.3.2); checkpointing
// (MarshalBinary) is the train-once/deploy-many artifact Figure 11
// amortizes.
//
// # Concurrency and determinism
//
// Networks are NOT goroutine-safe: forward caches activations for
// the following backward pass, and batch passes reuse layer-owned
// scratch. Give each concurrent user its own Clone. Initialization
// and training are deterministic given the seed on a fixed CPU
// feature set: the hot kernels (matmul, axpy, Adam, soft-update) have
// AVX2+FMA assembly variants, CPUID-gated with a pure-Go fallback.
// matmul — the batched forward and input-gradient product — sums each
// output in one fixed FMA order in both variants, so its results do
// not depend on the CPU. The pure-Go axpy and dot loops may round each
// product before adding, so parameter gradients, and the rows a batch
// leaves over after its groups of four, may differ in the last bits
// across machines with different vector support. The batch passes
// (ForwardBatch, BackwardBatch and its Params/Input variants) allocate
// nothing in steady state; scalar Backward is also allocation-free.
//
// # Precision
//
// Every pass, kernel and optimizer step runs in float64: one batch
// engine serves training and batched inference alike, and the
// recorded figures depend on its exact rounding.
package nn
