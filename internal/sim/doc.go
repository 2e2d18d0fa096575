// Package sim provides the synchronous slotted-time execution substrate of
// the paper's model (Section 3): nodes have synchronized clocks, run their
// protocols in lockstep, and the only communication primitive is
// transmission on the single shared wireless channel, resolved exactly by
// the SINR condition (Eqn 1) each slot.
//
// A slot proceeds in three stages: every node's protocol emits an action
// (transmit with a power and message, listen, or idle); the channel computes
// the SINR at every listener from the full set of concurrent senders; and
// decodable messages are delivered into inboxes the protocols see at the
// next slot. Node stepping and listener decoding fan out to a persistent
// worker pool (Config.Pool, which an engine borrows and never owns) when a
// slot's stage is large enough to pay for it — safe
// because protocols only touch their own state — and all randomness is
// derived deterministically from the engine seed, so results are
// reproducible regardless of worker count. A node
// whose protocol entry is nil idles forever and is never visited, and a
// node whose protocol returns Leave is never visited again, so a slot costs
// what its live nodes cost. A node whose action declares its next one
// (Action.Then) is not stepped on an empty inbox: the engine takes the
// declared action. A node whose action holds (Action.Hold) leaves the
// slot loop for a held set until a delivery arrives: no stage visits it,
// a slot with a sender adds it to the listeners only when it can receive
// (addressed by a sender, or within a sender's listen range), and a
// delivery puts it back among the live nodes in ascending order, so a
// node that only waits costs nothing in a slot that cannot reach it.
// NodeRand gives each node
// a private random stream whose first 273 draws cost two closed-form words
// each, with no math/rand register built.
//
// Two gates keep a slot from decoding listeners whose protocol would drop
// what they hear. Under a listen range (Engine.SetListenRange) a listener
// keeps only messages from a sender closer than the range, and a listener
// that returns ListenAddressed keeps only messages addressed to it. Before
// decode, each gate drops the listeners no sender of the slot can reach
// that way; in the shared decode tail, a reception the listener would not
// keep ends uncounted. So every inbox and counter is the same with a gate
// on or off, and Stats count only receptions a protocol reads.
//
// The slot loop is zero-allocation in steady state: workers are spawned once
// (not per slot), per-worker shard counters replace mutex-guarded stats, and
// channel resolution reads the sinr physics kernel's cached gain table
// instead of recomputing path loss per (sender, listener) pair. Past the
// table's memory bound, Config.Far switches decoding to a far-field
// approximation plan (the quadtree, *sinr.QuadTree), and each slot picks
// exact or far-field resolution from its live sender count
// (Config.AdaptiveCrossover) — sparse slots skip the plan entirely — while
// staying bit-identical to forcing the chosen mode per slot.
package sim
