// Package schedule partitions link sets into SINR-feasible slots. It
// provides the two schedulers the paper leans on:
//
//   - Distributed: the contention-resolution scheduler in the style of
//     Kesselheim & Vöcking (DISC 2010) that the paper invokes for Theorem 3,
//     with explicit acknowledgments on dual links (Appendix C) and adaptive
//     transmission probabilities. It runs on the sim engine, so its success
//     notion is the exact SINR physics.
//
//   - FirstFit: the classic centralized greedy that assigns each link,
//     longest first, to the first slot that stays feasible — the comparator used to calibrate
//     the distributed scheduler's approximation factor.
package schedule
