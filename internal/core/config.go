package core

import (
	"context"
	"fmt"
	"math"

	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
)

// engineConfig is the channel config of one engine of the construction:
// c.Channel with its drop stream seeded from Channel.Seed^salt, so each
// engine kind (Init, Join) draws its own drops from the construction's one
// seed.
func (c *InitConfig) engineConfig(salt int64) sim.Config {
	ec := c.Channel
	ec.Seed ^= salt
	return ec
}

// linkSet returns the links as a set, or nil when there are none.
func linkSet(links []sinr.Link) map[sinr.Link]bool {
	if len(links) == 0 {
		return nil
	}
	set := make(map[sinr.Link]bool, len(links))
	for _, l := range links {
		set[l] = true
	}
	return set
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

// ackProb is the probability a listener that decoded an in-class broadcast
// answers. The paper uses p here too; acking near-certainly is faster in
// practice and only helps.
const ackProb = 0.9

// minPairs floors the slot-pairs per round.
const minPairs = 8

// InitConfig tunes the Section 6 construction.
type InitConfig struct {
	// BroadcastProb is the paper's p: the probability an active node elects
	// to broadcast in a slot-pair. Default 0.25.
	BroadcastProb float64
	// Lambda scales slot-pairs per round: pairs = max(minPairs,
	// ⌈Lambda·log₂ n⌉), the practical stand-in for the paper's λ₁·log n.
	// Default 4.
	Lambda float64
	// ExtraRounds caps the safety rounds run at the top length class after
	// the ⌈log Δ⌉ ladder if more than one node is still active. Default 64.
	ExtraRounds int
	// Channel is the channel every engine of the construction runs on:
	// the shared worker pool, the far-field plan (built from the
	// construction's instance), the drop rate, the slot observer and the
	// fault injector (see sim.Config). Its Seed derives all node randomness
	// and, salted per engine kind, each engine's drop stream, so runs are
	// reproducible.
	Channel sim.Config
	// Participants restricts the protocol to a subset of node indices
	// (TreeViaCapacity shrinks this set each iteration). nil means all.
	Participants []int
	// Forbidden lists directed links that must not form, in Init, Join and
	// the repairs alike: it models permanently failed links — an obstacle
	// the SINR mean-path-loss channel cannot express. A node does not
	// answer a broadcast across a forbidden link, so no acknowledgment can
	// re-create one.
	Forbidden []sinr.Link
	// Mute lists member nodes excluded as attachment targets (Join and the
	// repair re-attachment paths): they participate in the tree but never
	// acknowledge a joiner's broadcast, so no new link can form INTO them.
	// The churn driver mutes flap-damped regions — mirroring the
	// "ignore recently dropped paths" invariant of mesh routing — so a
	// repeatedly failing neighborhood stops attracting re-attachments.
	Mute []int
}

func (c *InitConfig) defaults() {
	if c.BroadcastProb <= 0 || c.BroadcastProb > 0.5 {
		c.BroadcastProb = 0.25
	}
	if c.Lambda <= 0 {
		c.Lambda = 4
	}
	if c.ExtraRounds <= 0 {
		c.ExtraRounds = 64
	}
}

// pairsPerRound returns the slot-pairs per round for n participants.
func (c *InitConfig) pairsPerRound(n int) int {
	pairs := int(math.Ceil(c.Lambda * math.Log2(math.Max(2, float64(n)))))
	return max(pairs, minPairs)
}

// validate rejects nonsensical configs beyond what defaults() repairs. The
// range checks are written so that NaN, which defaults() leaves in place,
// fails them.
func (c *InitConfig) validate() error {
	if !(c.Channel.DropProb >= 0 && c.Channel.DropProb < 1) {
		return fmt.Errorf("core: drop probability %v outside [0,1)", c.Channel.DropProb)
	}
	if !(c.BroadcastProb > 0 && c.BroadcastProb <= 0.5) {
		return fmt.Errorf("core: broadcast probability %v outside (0, 0.5]", c.BroadcastProb)
	}
	return nil
}
