// Package sinr implements the physical (SINR) interference model of
// Halldórsson & Mitra (PODC 2012), Section 3: reception condition (Eqn 1),
// thresholded affectance, power assignments (uniform, linear, mean,
// arbitrary), feasibility of link sets, and the duality bounds of
// Claim 8.3. It is the physics substrate every protocol in this repository
// runs on.
//
// Two performance layers sit under the model, both value-preserving by
// test:
//
//   - The physics kernel (kernel.go): fast integer/half-integer-α path
//     loss, a lazily built O(n²) gain table capped at 256 MiB with a
//     bit-identical tableless fallback, and memoized per-link constants.
//     See DESIGN.md §2.
//   - The far-field engine behind the Far/FarResolver interface: the
//     hierarchical quadtree (quadtree.go), a Barnes–Hut pyramid that
//     resolves distant interference by power-weighted centroid mass within
//     a certified worst-case relative error selected via
//     sinrconn.WithMaxRelError, with exact decode winners and guard-banded
//     feasibility; its per-listener opening criterion keeps tight ε
//     sub-quadratic (DESIGN.md §7–§8). A float32 view of its aggregates
//     (quadtree_f32.go) implements the same interface.
//
// Every quantity is pinned against the deliberately naive reference in
// internal/oracle by the differential suites (differential_test.go,
// quadtree_test.go) across the workload scenario matrix.
package sinr
