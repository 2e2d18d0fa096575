// Package geom provides the planar-geometry substrate used by the SINR
// connectivity algorithms: points, distances, length classes,
// closest/farthest pair computation, and a Euclidean minimum spanning tree.
//
// The paper (Halldórsson & Mitra, PODC 2012) assumes nodes are points in the
// plane with minimum pairwise distance 1; Δ denotes the maximum pairwise
// distance. Everything in this package is deterministic and allocation
// conscious: the hot path of the channel simulator calls into it every slot.
package geom
