// Package ddpg implements Deep Deterministic Policy Gradient
// (Lillicrap et al., ICLR'16) — Algorithm 2 of the GreenNFV paper:
// an actor-critic method for continuous, high-dimensional action
// spaces, which is why the paper selects it over Q-learning and DQN
// for the five-knobs-per-NF resource-control problem.
//
// # Paper mapping
//
// Algorithm 2 end to end: OU exploration noise (line 1), prioritized
// minibatch sampling (line 3), critic regression and actor gradient
// (lines 5–8), soft target updates (lines 9–10). The trained actor
// is the policy deployed in Figures 6–11.
//
// # Concurrency and determinism
//
// An Agent is NOT goroutine-safe; the Ape-X learner serializes
// updates and actors own private Agent copies. Training is
// deterministic given Config.Seed and a fixed replay history (up to
// the CPU-feature caveat documented in internal/nn), which is what
// keeps the round-robin training figures byte-identical.
//
// Learn is organized as sample + learnMinibatch: Learn draws a
// prioritized minibatch and hands it to the update step, and the
// Ape-X pipeline calls the same step through LearnBatch with a
// prefetched minibatch instead. The two differ only in where the
// minibatch comes from. The step runs three batched network passes
// over reusable scratch (zero allocations per update, including
// sampling, pinned by benchmarks), all in float64. The replay behind
// Observe/ObserveBatch is goroutine-safe (see internal/replay), so
// experience ingest may run concurrently with action selection but
// not with updates.
//
// # Batched acting
//
// The acting side has its own batched layer, independent of the
// learner paths above:
//
//   - ActInto is Act without the return-value allocation: action
//     selection into a caller-owned slice, bit-identical to Act.
//   - ActBatch selects actions for n actors' states in one call —
//     one nn.ForwardRows pass over the row matrix plus the per-lane
//     OU noise draws and clamps. ForwardRows keeps the scalar
//     per-row summation order, so the f64 batch is BIT-IDENTICAL to
//     n scalar Act calls (pinned by TestActBatchMatchesScalarReference
//     and the apex VecActor parity test); it exists so batching is a
//     pure throughput knob, never a numerics change.
//   - TDErrorBatch computes |δ| priorities for a whole push window in
//     two target-net row passes instead of 3·n scalar forwards, again
//     bit-identical to scalar TDError. It reads only the target nets
//     and the critic — parameters a learner broadcast never touches —
//     which is why the Ape-X actor may defer priority settlement to
//     push time without changing a single priority bit.
//
// All batched-acting entry points are zero-allocation in steady state
// (TestActBatchNoAllocs); scratch grows monotonically to the largest
// batch seen.
//
// # Serialization contract
//
// SaveState/LoadState (checkpoint.go) serialize the COMPLETE training
// state, not just the policy: all four networks, both optimizers'
// Adam moments, the OU
// noise process, the exploration-RNG stream position, the learn-step
// counter and optionally the replay contents. The restore contract is
// bit-exactness: an agent restored from a snapshot produces the same
// actions, losses and parameter bytes on every subsequent step as the
// original would have — pinned by TestCheckpointRoundTrip. Two consequences shape the API: the
// target Config must match the snapshot exactly (strict equality, no
// silent topology adaption), and LoadState requires an EMPTY replay
// of matching capacity when the snapshot carries one (restoring over
// live experience would splice two histories). The RNG stream
// restores by draw count — the counting source re-seeds and
// fast-forwards — so snapshots stay valid across Go versions only as
// far as math/rand's generator is stable, which is the same
// assumption seeded training already makes. ActorBytes remains the
// separate, policy-only format for broadcasts and deployment; the
// two formats are unrelated on the wire.
package ddpg
