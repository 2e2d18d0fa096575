package core

// White-box state-machine tests: drive the per-node protocols through
// hand-crafted slot/inbox sequences and verify each transition branch.

import (
	"testing"

	"sinrconn/internal/sim"
	"sinrconn/internal/tree"
)

func newTestInitNode(id int) *initNode {
	cfg := &InitConfig{}
	cfg.defaults()
	cfg.BroadcastProb = 1 // deterministic: always broadcast when active
	return &initNode{
		id:            id,
		cfg:           cfg,
		rng:           sim.NodeRand{Seed: 2}, // second draw 0.27: the ack coin passes ackProb
		active:        true,
		parent:        -1,
		broadcastPair: -1,
		spec:          &roundSpec{hi: 4, power: 100},
	}
}

// TestInitNodeNonParticipantIdles pins that a non-participant gets a nil
// protocol (the engine's idle-forever node) while each participant keeps
// the seed it would have had with every node participating.
func TestInitNodeNonParticipantIdles(t *testing.T) {
	cfg := &InitConfig{Channel: sim.Config{Seed: 5}}
	all, _ := initProtocols([]bool{true, true, true, true, true}, cfg, new(roundSpec))
	isPart := []bool{false, true, false, true, false}
	nodes, procs := initProtocols(isPart, cfg, new(roundSpec))
	for i, part := range isPart {
		switch {
		case !part && (nodes[i] != nil || procs[i] != nil):
			t.Errorf("non-participant %d has a protocol", i)
		case part && (nodes[i] == nil || procs[i] != sim.Protocol(nodes[i])):
			t.Errorf("participant %d has no protocol", i)
		case part && nodes[i].rng.Seed != all[i].rng.Seed:
			t.Errorf("participant %d seed %d, want %d", i, nodes[i].rng.Seed, all[i].rng.Seed)
		}
	}
}

func TestInitNodeBroadcastsWhenForced(t *testing.T) {
	nd := newTestInitNode(3)
	a := nd.Step(0, nil)
	if a.Kind != sim.ActionTransmit || a.Msg.Kind != sim.KindBroadcast || a.Msg.From != 3 || a.Msg.To != sim.NoAddressee {
		t.Fatalf("expected broadcast to no addressee, got %+v", a)
	}
	if a.Power != 100 {
		t.Errorf("power = %v", a.Power)
	}
	if nd.broadcastPair != 0 {
		t.Errorf("broadcastPair = %d", nd.broadcastPair)
	}
	// During the ack slot the broadcaster listens for acks addressed to it.
	if a := nd.Step(1, nil); a.Kind != sim.ActionListenAddressed {
		t.Fatalf("broadcaster should listen for acks addressed to it, got %v", a.Kind)
	}
}

func TestInitNodeConsumesAckAndDeactivates(t *testing.T) {
	nd := newTestInitNode(3)
	nd.Step(0, nil) // broadcast at pair 0
	nd.Step(1, nil) // listen
	ack := sim.Delivery{Msg: sim.Message{Kind: sim.KindAck, From: 9, To: 3}}
	a := nd.Step(2, []sim.Delivery{ack})
	if nd.active {
		t.Fatal("node still active after ack")
	}
	if nd.parent != 9 {
		t.Errorf("parent = %d", nd.parent)
	}
	if nd.outLink == nil || nd.outLink.L.To != 9 || nd.outLink.Slot != 0 {
		t.Errorf("outLink = %+v", nd.outLink)
	}
	if a.Kind != sim.ActionLeave {
		t.Errorf("deactivated node did not leave: %v", a.Kind)
	}
	if a := nd.Step(3, nil); a.Kind != sim.ActionLeave {
		t.Errorf("deactivated node did not leave in an ack slot: %v", a.Kind)
	}
}

func TestInitNodeIgnoresAckForOthers(t *testing.T) {
	nd := newTestInitNode(3)
	nd.Step(0, nil)
	nd.Step(1, nil)
	ack := sim.Delivery{Msg: sim.Message{Kind: sim.KindAck, From: 9, To: 7}}
	nd.Step(2, []sim.Delivery{ack})
	if !nd.active {
		t.Fatal("node deactivated by someone else's ack")
	}
}

func TestInitNodeAcksInGateBroadcast(t *testing.T) {
	nd := newTestInitNode(5)
	nd.cfg.BroadcastProb = 0 // always a listener
	nd.Step(0, nil)          // listener in data slot
	bc := sim.Delivery{
		Msg:  sim.Message{Kind: sim.KindBroadcast, From: 2},
		Dist: 2.5, // inside gate [0, 4)
	}
	a := nd.Step(1, []sim.Delivery{bc})
	if a.Kind != sim.ActionTransmit || a.Msg.Kind != sim.KindAck || a.Msg.To != 2 {
		t.Fatalf("expected ack to 2, got %+v", a)
	}
	if len(nd.tentative) != 1 || nd.tentative[0] != 2 {
		t.Errorf("tentative children = %v", nd.tentative)
	}
}

func TestInitNodeRejectsOutOfGateBroadcast(t *testing.T) {
	nd := newTestInitNode(5)
	nd.cfg.BroadcastProb = 0
	nd.Step(0, nil)
	for _, dist := range []float64{4.0, 9.9} { // at or above hi
		bc := sim.Delivery{Msg: sim.Message{Kind: sim.KindBroadcast, From: 2}, Dist: dist}
		// A node that does not acknowledge idles: nothing reads its inbox.
		if a := nd.Step(1, []sim.Delivery{bc}); a.Kind != sim.ActionIdle {
			t.Fatalf("dist %v: out-of-gate broadcast answered with %+v, want idle", dist, a)
		}
		nd.Step(0, nil) // back to a data slot
	}
}

func TestInitNodeIgnoresNonBroadcastInAckSlot(t *testing.T) {
	nd := newTestInitNode(5)
	nd.cfg.BroadcastProb = 0
	nd.Step(0, nil)
	data := sim.Delivery{Msg: sim.Message{Kind: sim.KindData, From: 2}, Dist: 2}
	if a := nd.Step(1, []sim.Delivery{data}); a.Kind != sim.ActionIdle {
		t.Fatalf("answered a non-broadcast with %+v, want idle", a)
	}
}

func newTestJoinNode(id int, role joinRole) *joinNode {
	cfg := &InitConfig{}
	cfg.defaults()
	cfg.BroadcastProb = 1
	return &joinNode{
		id:            id,
		cfg:           cfg,
		rng:           sim.NodeRand{Seed: 2}, // early draws 0.17, 0.27: ack coins pass ackProb
		role:          role,
		broadcastPair: -1,
		decayLevels:   0, // level 0 always → ack probability 1
		spec:          &roundSpec{hi: 100, power: 50},
	}
}

func TestJoinNodeIdleRole(t *testing.T) {
	nd := newTestJoinNode(1, joinIdle)
	for slot := 0; slot < 4; slot++ {
		if a := nd.Step(slot, nil); a.Kind != sim.ActionIdle {
			t.Fatalf("idle-role node acted at slot %d", slot)
		}
	}
}

func TestJoinNodeJoinerAttaches(t *testing.T) {
	nd := newTestJoinNode(7, joinJoiner)
	a := nd.Step(0, nil)
	if a.Kind != sim.ActionTransmit || a.Msg.Kind != sim.KindBroadcast {
		t.Fatalf("joiner did not broadcast: %+v", a)
	}
	nd.Step(1, nil) // waiting for ack
	ack := sim.Delivery{Msg: sim.Message{Kind: sim.KindAck, From: 4, To: 7}}
	nd.Step(2, []sim.Delivery{ack})
	if nd.role != joinMember {
		t.Fatal("joiner did not become member")
	}
	if nd.outLink == nil || nd.outLink.L != (outLinkOf(7, 4)) || nd.outLink.Power != 50 {
		t.Errorf("outLink = %+v", nd.outLink)
	}
}

func outLinkOf(from, to int) (l struct{ From, To int }) {
	l.From = from
	l.To = to
	return l
}

func TestJoinNodeMemberAcks(t *testing.T) {
	nd := newTestJoinNode(2, joinMember)
	if a := nd.Step(0, nil); a.Kind != sim.ActionListen {
		t.Fatalf("member should listen in data slot: %v", a.Kind)
	}
	bc := sim.Delivery{Msg: sim.Message{Kind: sim.KindBroadcast, From: 9}, Dist: 10, Slot: 0}
	a := nd.Step(1, []sim.Delivery{bc})
	if a.Kind != sim.ActionTransmit || a.Msg.Kind != sim.KindAck || a.Msg.To != 9 {
		t.Fatalf("member did not ack: %+v", a)
	}
}

func TestJoinNodeMemberRespectsGate(t *testing.T) {
	nd := newTestJoinNode(2, joinMember)
	nd.spec = &roundSpec{hi: 8, power: 50}
	nd.Step(0, nil)
	bc := sim.Delivery{Msg: sim.Message{Kind: sim.KindBroadcast, From: 9}, Dist: 12, Slot: 0}
	if a := nd.Step(1, []sim.Delivery{bc}); a.Kind != sim.ActionIdle {
		t.Fatalf("member answered an out-of-gate broadcast with %+v, want idle", a)
	}
}

// TestJoinNodeIdlesWhenInboxUnread pins the join idle rules: a slot whose
// inbox the node's next step ignores is spent idle, not listening. A
// joiner that does not broadcast idles in the data slot (its ack slot
// reads nothing) and in the ack slot (its next data slot reads acks only
// after a broadcast); a member, muted or not, that does not acknowledge
// idles in the ack slot. Members still listen in data slots and a
// broadcasting joiner, for acks addressed to it, in its ack slot; its
// broadcast addresses no node.
func TestJoinNodeIdlesWhenInboxUnread(t *testing.T) {
	far := []sim.Delivery{{Msg: sim.Message{Kind: sim.KindBroadcast, From: 9}, Dist: 500, Slot: 0}}
	cases := []struct {
		name  string
		role  joinRole
		muted bool
		bcast float64 // BroadcastProb
		inbox []sim.Delivery
		want  [2]sim.ActionKind // data slot, ack slot
	}{
		{"joiner-silent", joinJoiner, false, 0, nil, [2]sim.ActionKind{sim.ActionIdle, sim.ActionIdle}},
		{"joiner-broadcasts", joinJoiner, false, 1, nil, [2]sim.ActionKind{sim.ActionTransmit, sim.ActionListenAddressed}},
		{"member-no-broadcast-heard", joinMember, false, 1, nil, [2]sim.ActionKind{sim.ActionListen, sim.ActionIdle}},
		{"member-out-of-gate", joinMember, false, 1, far, [2]sim.ActionKind{sim.ActionListen, sim.ActionIdle}},
		{"member-muted", joinMember, true, 1, []sim.Delivery{{Msg: sim.Message{Kind: sim.KindBroadcast, From: 9}, Dist: 10}}, [2]sim.ActionKind{sim.ActionListen, sim.ActionIdle}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nd := newTestJoinNode(2, c.role)
			nd.muted = c.muted
			nd.cfg.BroadcastProb = c.bcast
			for pair := 0; pair < 3; pair++ {
				data := nd.Step(2*pair, nil)
				if data.Kind == sim.ActionTransmit && data.Msg.To != sim.NoAddressee {
					t.Fatalf("pair %d: the broadcast addresses node %d", pair, data.Msg.To)
				}
				got := [2]sim.ActionKind{data.Kind, nd.Step(2*pair+1, c.inbox).Kind}
				if got != c.want {
					t.Fatalf("pair %d: actions %v, want %v", pair, got, c.want)
				}
			}
		})
	}
}

func TestRelayFoldsAdoptsAndTransmits(t *testing.T) {
	data := func(to, tag int, payload int64) sim.Delivery {
		return sim.Delivery{Msg: sim.Message{Kind: sim.KindData, To: to, From: 7, Tag: tag, Payload: payload}}
	}
	duty := []relayDuty{{slot: 1, to: 0, power: 10}}

	// A holder folds a tagged value addressed to it; untagged and
	// mis-addressed messages change nothing.
	nd := &relay{id: 1, member: true, up: true, holds: true, value: 5, fold: sumFold, duties: duty}
	if a := nd.Step(0, []sim.Delivery{data(1, 0, 50), data(2, 1, 100)}); a.Kind != sim.ActionListenAddressed {
		t.Fatalf("slot 0 should listen addressed: %v", a.Kind)
	}
	if nd.value != 5 {
		t.Fatalf("untagged or mis-addressed message moved the value to %d", nd.value)
	}
	a := nd.Step(1, []sim.Delivery{data(1, 1, 7)})
	if nd.value != 12 {
		t.Errorf("folded value = %d, want 12", nd.value)
	}
	if a.Kind != sim.ActionTransmit || a.Power != 10 || a.Msg.To != 0 || a.Msg.Tag != 1 || a.Msg.Payload != 12 {
		t.Fatalf("transmit action = %+v", a)
	}

	// With no fold, a holder adopts what it receives.
	nd = &relay{id: 1, member: true, holds: true, value: 5}
	nd.Step(0, []sim.Delivery{data(1, 1, 9)})
	if !nd.holds || nd.value != 9 {
		t.Errorf("no-fold holder: holds=%v value=%d, want 9", nd.holds, nd.value)
	}

	// An up relay fires its duty even before it holds a value, untagged;
	// a tagged value then makes it a holder, folding or not.
	nd = &relay{id: 1, member: true, up: true, fold: sumFold, duties: duty}
	if a := nd.Step(1, nil); a.Kind != sim.ActionTransmit || a.Msg.Tag != 0 {
		t.Fatalf("up non-holder: %+v, want an untagged transmit", a)
	}
	nd.Step(2, []sim.Delivery{data(1, 1, 4)})
	if !nd.holds || nd.value != 4 {
		t.Errorf("up non-holder adopted holds=%v value=%d, want 4", nd.holds, nd.value)
	}

	// A down relay stays silent at its duty until it holds a value.
	nd = &relay{id: 1, member: true, duties: []relayDuty{{slot: 1, to: 0, power: 10}, {slot: 3, to: 2, power: 20}}}
	if a := nd.Step(1, []sim.Delivery{data(1, 0, 6)}); a.Kind != sim.ActionListenAddressed {
		t.Fatalf("down non-holder acted at its duty: %v", a.Kind)
	}
	nd.Step(2, []sim.Delivery{data(1, 1, 6)})
	if a := nd.Step(3, nil); a.Kind != sim.ActionTransmit || a.Power != 20 || a.Msg.To != 2 || a.Msg.Tag != 1 || a.Msg.Payload != 6 {
		t.Fatalf("down holder's transmit = %+v", a)
	}

	// A non-member idles, whatever it holds.
	out := &relay{id: 9, up: true, holds: true, duties: duty}
	if a := out.Step(1, nil); a.Kind != sim.ActionIdle {
		t.Fatal("non-member acted")
	}
}

func TestRoundSpecPowerStampedOnLink(t *testing.T) {
	// Regression guard: the power recorded on a formed link is the power
	// of the round in which the broadcast happened, not a later round's.
	nd := newTestInitNode(3)
	nd.spec = &roundSpec{hi: 4, power: 111}
	nd.Step(0, nil)
	*nd.spec = roundSpec{hi: 8, power: 999} // round advances mid-wait
	nd.Step(1, nil)
	ack := sim.Delivery{Msg: sim.Message{Kind: sim.KindAck, From: 9, To: 3}}
	nd.Step(2, []sim.Delivery{ack})
	if nd.outLink.Power != 111 {
		t.Errorf("stamped power = %v, want the broadcast round's 111", nd.outLink.Power)
	}
	var _ tree.TimedLink = *nd.outLink
}
