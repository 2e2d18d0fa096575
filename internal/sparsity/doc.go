// Package sparsity implements Definition 8 of the paper: a link set L is
// ψ-sparse if every closed ball B contains at most ψ endpoints of links of
// length ≥ 8·rad(B). Sparsity is the geometric property connecting the Init
// tree to efficient scheduling (Thm 9/11/13): O(log n)-sparsity of the full
// tree and O(1)-sparsity of its low-degree core are what make the capacity
// arguments work.
package sparsity
