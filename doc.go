// Package sinrconn is a Go implementation of "Distributed Connectivity of
// Wireless Networks" (Halldórsson & Mitra, PODC 2012): distributed
// algorithms that, starting from identical wireless nodes with no
// infrastructure, build a strongly connected communication structure (a
// bi-tree: converge-cast plus dissemination tree) and schedule it
// efficiently under the SINR physical interference model.
//
// The primary API is session-oriented: Open validates a deployment once and
// returns a long-lived *Network owning the physics state (the O(n²) gain
// table) and a persistent simulator worker pool; Run executes any of the
// paper's pipelines against that shared state with context cancellation,
// and RunMatrix fans one handle out across pipelines × seeds × physical
// parameters with bounded concurrency. The pipelines mirror the paper's
// three main theorems:
//
//   - PipelineInit — the Section 6 construction (Theorem 2): a bi-tree in
//     O(log Δ · log n) channel slots using per-round uniform power.
//   - PipelineRescheduleMean — Section 7 (Theorem 3): the same tree
//     re-scheduled under mean power with distributed contention
//     resolution, removing the log Δ factor from the schedule.
//   - PipelineTVCMean / PipelineTVCArbitrary — Section 8 (Theorem 4): the
//     interleaved TreeViaCapacity constructions whose final schedules match
//     the best centralized bounds — O(Υ·log n) slots with oblivious mean
//     power and O(log n) slots with computed powers.
//
// All pipelines run on a slotted SINR channel simulator — exact by default,
// or under the quadtree far-field approximation with a certified error
// bound (WithMaxRelError) past the exact kernel's O(n²) wall. Results are
// deterministic for a fixed seed (and therefore memoized per handle).
// Joins, repairs and physical epochs run as methods on the same handle.
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's claims.
package sinrconn
