package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sinrconn/internal/schedule"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// RescheduleResult is the outcome of the Section 7 mean-power rescheduling
// (Theorem 3).
type RescheduleResult struct {
	// Tree is a copy of the input tree with slots and powers replaced by
	// the mean-power schedule. Note (per the paper): the rescheduled tree
	// does not necessarily satisfy the bi-tree ordering property.
	Tree *tree.BiTree
	// NumSlots is the new schedule length.
	NumSlots int
	// SlotPairs is the channel time the distributed scheduler consumed.
	SlotPairs int
	// Stats carries the scheduler's engine counters (Energy is the
	// transmission energy the contention-resolution run itself spent).
	Stats sim.Stats
}

// Reschedule re-schedules the links of an Init tree under assignment pa
// (mean power for Theorem 3) using the distributed contention-resolution
// scheduler of Kesselheim & Vöcking. The input tree's O(log n)-sparsity
// (Theorem 11) is what makes the resulting schedule short:
// O(Υ·log³ n) versus the O(log Δ·log n) stamps the construction itself
// produced. ecfg is the scheduler's channel; its Seed also drives the
// scheduler's node randomness (see schedule.Distributed).
func Reschedule(ctx context.Context, in *sinr.Instance, bt *tree.BiTree, pa sinr.Assignment, ecfg sim.Config) (*RescheduleResult, error) {
	links := bt.Links()
	res, err := schedule.Distributed(ctx, in, links, pa, ecfg)
	if err != nil {
		if errors.Is(err, schedule.ErrIncomplete) {
			// Budget exhaustion in the randomized scheduler is the same
			// Las Vegas failure class as a non-converged construction:
			// re-running with a fresh seed succeeds w.h.p. Root it at
			// ErrNotConverged so retry routing sees one class.
			return nil, fmt.Errorf("core: reschedule: %w: %v", ErrNotConverged, err)
		}
		return nil, fmt.Errorf("core: reschedule: %w", err)
	}
	out := &tree.BiTree{
		Root:  bt.Root,
		Nodes: append([]int(nil), bt.Nodes...),
		Up:    make([]tree.TimedLink, len(bt.Up)),
	}
	for i, tl := range bt.Up {
		out.Up[i] = tree.TimedLink{
			L:     tl.L,
			Slot:  res.Slot[tl.L],
			Power: pa.Power(in, tl.L),
		}
	}
	return &RescheduleResult{
		Tree:      out,
		NumSlots:  res.NumSlots,
		SlotPairs: res.SlotPairs,
		Stats:     res.Stats,
	}, nil
}

// UniformScheduleLength schedules the tree's links under uniform power with
// the centralized first-fit — the baseline showing the log Δ cost that
// Theorem 3 removes. Links that cannot be scheduled under the uniform
// power at all (never happens for powers covering the longest link) are
// counted as one extra slot each.
func UniformScheduleLength(in *sinr.Instance, bt *tree.BiTree) int {
	links := bt.Links()
	maxLen := 0.0
	for _, l := range links {
		if ln := in.Length(l); ln > maxLen {
			maxLen = ln
		}
	}
	pa := sinr.UniformFor(in.Params(), math.Max(1, maxLen))
	slots, bad := schedule.FirstFit(in, links, pa)
	return len(slots) + len(bad)
}

// MeanScheduleLength is the centralized first-fit schedule length under
// noise-safe mean power — the centralized comparator for Theorem 3.
func MeanScheduleLength(in *sinr.Instance, bt *tree.BiTree) int {
	pa := sinr.NoiseSafeMean(in.Params(), math.Max(1, in.Delta()))
	slots, bad := schedule.FirstFit(in, bt.Links(), pa)
	return len(slots) + len(bad)
}
