package core

import (
	"context"
	"fmt"
	"math"

	"sinrconn/internal/faults"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
)

// engineConfig is the sim.Config a core construction derives from an
// InitConfig: worker budget, failure injection, and the shared pool.
func (c *InitConfig) engineConfig(seed int64) sim.Config {
	return sim.Config{
		Workers:  c.Workers,
		DropProb: c.DropProb,
		Seed:     seed,
		Pool:     c.Pool,
		Far:      c.Far,
		Observer: c.Observer,
		Injector: c.Injector,
	}
}

// checkCtx returns ctx's error wrapped with the construction stage that
// observed it, or nil. Constructions call it between engine slots (never
// inside one), so cancellation always leaves engines and trees consistent.
func checkCtx(ctx context.Context, stage string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s canceled: %w", stage, err)
	}
	return nil
}

// InitConfig tunes the Section 6 construction.
type InitConfig struct {
	// BroadcastProb is the paper's p: the probability an active node elects
	// to broadcast in a slot-pair. Default 0.25.
	BroadcastProb float64
	// AckProb is the probability a listener that decoded an in-class
	// broadcast answers (the paper uses p here too; acking near-certainly
	// is faster in practice and only helps). Default 0.9.
	AckProb float64
	// Lambda scales slot-pairs per round: pairs = max(MinPairs,
	// ⌈Lambda·log₂ n⌉), the practical stand-in for the paper's λ₁·log n.
	// Default 4.
	Lambda float64
	// MinPairs floors the slot-pairs per round. Default 8.
	MinPairs int
	// ExtraRounds caps the safety rounds run at the top length class after
	// the ⌈log Δ⌉ ladder if more than one node is still active. Default 64.
	ExtraRounds int
	// StrictGate keeps the paper's distance gate [2^(r-1), 2^r) during the
	// ladder. When false, the gate is [0, 2^r) — more permissive, slightly
	// off-model. Safety rounds always use [0, 2^R). Default true.
	StrictGate bool
	// Seed derives all node randomness. Runs are reproducible.
	Seed int64
	// Workers is the sim engine worker count (0 = NumCPU). Ignored when
	// Pool is set.
	Workers int
	// Pool, if non-nil, is a persistent sim worker pool shared across
	// engine lifetimes (owned by the session handle, sinrconn.Network).
	// Engines borrow it instead of spawning goroutines per construction.
	Pool *sim.Pool
	// Far, if non-nil, runs every engine of the construction under a
	// far-field channel approximation, each slot picking exact or far
	// resolution from its live sender count (see sim.Config.Far). The plan
	// must be built from the construction's instance.
	Far *sinr.QuadTree
	// DropProb injects reception failures in the engine.
	DropProb float64
	// Participants restricts the protocol to a subset of node indices
	// (TreeViaCapacity shrinks this set each iteration). nil means all.
	Participants []int
	// Forbidden lists directed links that must not form (Join/RepairLinks
	// only): it models permanently failed links — an obstacle the SINR
	// mean-path-loss channel cannot express. Joiners ignore acknowledgments
	// that would re-create a forbidden link, and members do not answer
	// broadcasts across one.
	Forbidden []sinr.Link
	// Mute lists member nodes excluded as attachment targets (Join and the
	// repair re-attachment paths): they participate in the tree but never
	// acknowledge a joiner's broadcast, so no new link can form INTO them.
	// The churn driver mutes flap-damped regions — mirroring the
	// "ignore recently dropped paths" invariant of mesh routing — so a
	// repeatedly failing neighborhood stops attracting re-attachments.
	Mute []int
	// Observer, if non-nil, receives a sim.SlotEvent after every engine
	// slot of the construction (the serving layer's streaming hook).
	// Observers are diagnostic only: they never influence the result.
	Observer sim.Observer
	// Injector, if non-nil, is handed to every engine of the construction
	// as its fault-injection hook (see internal/faults). Injected faults
	// only stall — results stay bit-identical to an injector-free run.
	Injector faults.Injector
}

func (c *InitConfig) defaults() {
	if c.BroadcastProb <= 0 || c.BroadcastProb > 0.5 {
		c.BroadcastProb = 0.25
	}
	if c.AckProb <= 0 || c.AckProb > 1 {
		c.AckProb = 0.9
	}
	if c.Lambda <= 0 {
		c.Lambda = 4
	}
	if c.MinPairs <= 0 {
		c.MinPairs = 8
	}
	if c.ExtraRounds <= 0 {
		c.ExtraRounds = 64
	}
}

// pairsPerRound returns the slot-pairs per round for n participants.
func (c *InitConfig) pairsPerRound(n int) int {
	pairs := int(math.Ceil(c.Lambda * math.Log2(math.Max(2, float64(n)))))
	if pairs < c.MinPairs {
		pairs = c.MinPairs
	}
	return pairs
}

// validate rejects nonsensical configs beyond what defaults() repairs. The
// range checks are written so that NaN, which defaults() leaves in place,
// fails them.
func (c *InitConfig) validate() error {
	if !(c.DropProb >= 0 && c.DropProb < 1) {
		return fmt.Errorf("core: drop probability %v outside [0,1)", c.DropProb)
	}
	if !(c.BroadcastProb > 0 && c.BroadcastProb <= 0.5) {
		return fmt.Errorf("core: broadcast probability %v outside (0, 0.5]", c.BroadcastProb)
	}
	return nil
}
