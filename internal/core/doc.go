// Package core implements the paper's distributed connectivity algorithms:
//
//   - Init (Section 6): the from-scratch bi-tree construction over ⌈log Δ⌉
//     doubling rounds of randomized broadcast/acknowledge slot-pairs
//     (Theorem 2).
//   - Reschedule (Section 7): re-scheduling the Init tree under mean power
//     with the distributed contention-resolution scheduler (Theorem 3).
//   - LowDegreeSubset (Theorem 13): the O(1)-sparse low-degree core T(M).
//   - MeanSampleEnergy (Section 8.1): the 1/(4γ₁Υ) sampling selection of a
//     large feasible subset under mean power.
//   - DistrCap (Section 8.2): the two-slot linear-power measurement
//     protocol selecting a Kesselheim-feasible subset for arbitrary power.
//   - TreeViaCapacity (Algorithm 1): the iterated construction matching the
//     centralized bounds (Theorem 4), in mean-power and arbitrary-power
//     variants.
//
// The theory constants of the proofs (p ≤ 1/64(1+6β2^α/(α−2)), λ₁ = 80/p²)
// are tuned for union bounds, not practice; each is replaced by an
// empirically sensible value. A value no caller varies is a named constant
// (ackProb, minPairs, gamma1, distrCapP, gamma2, maxIterations); a value
// stays a Config knob only while some caller sets it to something else
// (BroadcastProb and Rho from the public options, Lambda, Tau and Repeats
// from the ablations and experiments). The construction includes a
// deterministic safety loop (extra rounds at the top length class) that
// guarantees termination with a connected tree regardless of how the coins
// fall. DESIGN.md discusses the substitution.
//
// Every construction runs on one description of the channel, a sim.Config:
// InitConfig holds it as Channel (Init, Join and the repairs derive their
// node streams and each engine's drop seed from its Seed), TVCConfig
// passes it through
// its Init config, and Reschedule takes one directly. No construction owns
// goroutines; its engines borrow the Channel's pool, if any.
package core
