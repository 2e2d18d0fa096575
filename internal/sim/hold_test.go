package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

// holder returns its action in every slot it is stepped in and records
// those slots.
type holder struct {
	a       Action
	stepped []int
}

func (h *holder) Step(slot int, _ []Delivery) Action {
	h.stepped = append(h.stepped, slot)
	return h.a
}

// kindIn returns the kind node v took in the engine's last slot: a held
// node's from its held pair, which the engine writes into its action only
// in the slots it listens in.
func kindIn(e *Engine, v int32) ActionKind {
	if e.held.at != nil && e.held.at[v] >= 0 {
		return e.held.kinds[v][(e.slot-1)&1]
	}
	return e.actions[v].Kind
}

// TestHeldNodeIsNotStepped pins what a declaration buys: a node that holds
// Listen/Idle is stepped in its first slot and then only in the slot after
// a delivery, while taking the held actions in between, so it hears the
// one broadcast (slot 4) that reaches it in a listen slot and misses the
// one (slot 8) that falls in an idle slot.
func TestHeldNodeIsNotStepped(t *testing.T) {
	in := lineInstance(t, 0, 3)
	msg := Message{Kind: KindBroadcast, From: 0, To: NoAddressee}
	tx := Transmit(in.Params().SafePower(8), msg)
	sender := &scripted{actions: []Action{Idle(), Idle(), Idle(), Idle(), tx, Idle(), Idle(), Idle(), tx}}
	h := &holder{a: Action{Kind: ActionListen, Then: ActionIdle, Hold: true}}
	e := mustEngine(t, in, []Protocol{sender, h}, Config{})
	var kinds []ActionKind
	for range 10 {
		e.Step()
		kinds = append(kinds, kindIn(e, 1))
	}
	if got, want := fmt.Sprint(h.stepped), "[0 5]"; got != want {
		t.Errorf("stepped in slots %s, want %s", got, want)
	}
	// Slot 5 steps the node again, which restarts the pair at Listen.
	if got, want := fmt.Sprint(kinds), "[Listen Idle Listen Idle Listen Listen Idle Listen Idle Listen]"; got != want {
		t.Errorf("actions %s, want %s", got, want)
	}
	if st := e.Stats(); st.Deliveries != 1 {
		t.Errorf("%d deliveries, want 1", st.Deliveries)
	}
}

// TestBadDeclarationPanics pins the declarations the engine refuses: a
// Then that transmits or leaves, a Hold without a Then, and a held
// Transmit. Each panics in the slot that returns it, naming the node.
func TestBadDeclarationPanics(t *testing.T) {
	in := lineInstance(t, 0, 3, 6)
	tx := Transmit(1, Message{Kind: KindBroadcast, From: 2, To: NoAddressee})
	heldTx := tx
	heldTx.Then, heldTx.Hold = ActionIdle, true
	for _, c := range []struct {
		a    Action
		want string
	}{
		{Action{Kind: ActionListen, Then: ActionTransmit}, "node 2 declared Then Transmit"},
		{Action{Kind: ActionIdle, Then: ActionLeave}, "node 2 declared Then Leave"},
		{Action{Kind: ActionIdle, Then: 9}, "node 2 declared Then ActionKind(9)"},
		{Action{Kind: ActionListen, Hold: true}, "node 2 set Hold without Then"},
		{heldTx, "node 2 holds a Transmit action"},
	} {
		procs := []Protocol{&holder{a: Idle()}, &holder{a: Listen()}, &holder{a: c.a}}
		e := mustEngine(t, in, procs, Config{})
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, c.want) {
					t.Errorf("%+v: panic %v, want one containing %q", c.a, r, c.want)
				}
			}()
			e.Step()
		}()
	}
	// Leave may carry a declaration: the node is never stepped again.
	e := mustEngine(t, in, []Protocol{&holder{a: Action{Kind: ActionLeave, Then: ActionIdle}}, nil, nil}, Config{})
	e.Run(3)
	if e.Live() != 0 {
		t.Errorf("%d live after Leave, want 0", e.Live())
	}
}

// TestActionSize pins Action at 56 bytes: Then and Hold live in the
// padding after Kind, so the engine's per-node action slice did not grow.
func TestActionSize(t *testing.T) {
	if got := unsafe.Sizeof(Action{}); got != 56 {
		t.Errorf("sizeof(Action) = %d, want 56", got)
	}
}

// joinMember is a Join-shaped member: it holds Listen in data (even)
// slots and Idle in ack slots and, in the ack slot after it heard a
// broadcast, acknowledges it, addressed to the broadcaster, with
// probability 1/4 by a hash of (slot, id), or goes back to holding.
type joinMember struct {
	id    int
	power float64
}

func (m *joinMember) Step(slot int, inbox []Delivery) Action {
	if slot%2 == 1 {
		for _, d := range inbox {
			if d.Msg.Kind == KindBroadcast && dropCoin(29, slot, m.id) < 0.25 {
				return Transmit(m.power, Message{Kind: KindAck, From: m.id, To: d.Msg.From})
			}
		}
		return Action{Kind: ActionIdle, Then: ActionListen, Hold: true}
	}
	return Action{Kind: ActionListen, Then: ActionIdle, Hold: true}
}

// joinBroadcaster is a Join-shaped joiner that never attaches: it
// broadcasts in every data slot and listens for acknowledgments addressed
// to it in every ack slot, declared.
type joinBroadcaster struct {
	id    int
	power float64
}

func (j *joinBroadcaster) Step(slot int, _ []Delivery) Action {
	if slot%2 == 1 {
		return ListenAddressed()
	}
	a := Transmit(j.power, Message{Kind: KindBroadcast, From: j.id, To: NoAddressee})
	a.Then = ActionListenAddressed
	return a
}

// TestJoinVisitsOnlyJoinersAndWoken counts the nodes stages 1 and 2 visit
// on a Join-shaped engine: 1024 held members around one joiner that
// broadcasts under a listen range in every data slot. After the first
// slot, which steps everyone, a slot may visit only the joiner and the
// members woken by the previous slot: at most one per delivery and one
// per sender of that slot (an acknowledging member is stepped once more).
// That holds with the gate's rule, with the gate forced to compare every
// listener with every sender and forced onto the grid; each run must gate
// exactly the listeners checkGateSlot finds and equal, inbox for inbox,
// the run that steps every node, which visits all 1025 in every slot. The
// visits of a slot are the nodes live when it starts, read before each
// Step. Under the rule the joiner's comparisons pass the gate's budget
// after about six data slots, so that run must build the grid, and the
// run forced to compare must not. The count is of nodes, not of time.
func TestJoinVisitsOnlyJoinersAndWoken(t *testing.T) {
	const n, slots, r = 1025, 64, 6.0
	in := sinr.MustInstance(workload.JitteredGrid(rand.New(rand.NewSource(23)), n, 2.6, 0.8), sinr.DefaultParams())
	const joiner = n / 2
	power := in.Params().SafePower(r)
	run := func(label string, cfg Config) ([][]Delivery, Stats, []int, bool) {
		var visits []int
		var events []SlotEvent
		cfg.Observer = func(ev SlotEvent) { events = append(events, ev) }
		procs := make([]Protocol, n)
		recs := make([]*recordProto, n)
		for i := range procs {
			var inner Protocol = &joinMember{id: i, power: power}
			if i == joiner {
				inner = &joinBroadcaster{id: i, power: power}
			}
			recs[i] = &recordProto{inner: inner}
			procs[i] = recs[i]
		}
		e := mustEngine(t, in, procs, cfg)
		e.SetListenRange(r)
		built := false
		for s := 0; s < slots; s++ {
			// Stages 1 and 2 visit exactly the nodes live when the slot
			// starts.
			visits = append(visits, len(e.live))
			e.Step()
			built = built || e.gate.built
			if !cfg.noHold {
				checkGateSlot(t, label, e)
			}
		}
		if e.Live() != n {
			t.Fatalf("%s: %d nodes live, want %d", label, e.Live(), n)
		}
		for s := 1; s < slots && !cfg.noHold; s++ {
			if bound := 1 + events[s-1].Deliveries + events[s-1].Senders; visits[s] > bound {
				t.Fatalf("%s: slot %d visited %d nodes; the joiner and the woken are at most %d", label, s, visits[s], bound)
			}
		}
		got := make([][]Delivery, n)
		for i, rec := range recs {
			got[i] = append(rec.got, e.inboxes[i]...)
		}
		return got, e.Stats(), visits, built
	}
	refGot, refStats, refVisits, _ := run("stepped", Config{noHold: true})
	for _, v := range refVisits {
		if v != n {
			t.Fatalf("stepped: a slot visited %d nodes, want %d", v, n)
		}
	}
	if refStats.Deliveries == 0 || refStats.Transmissions <= slots/2 {
		t.Fatalf("stepped: %+v: no acknowledgment or no delivery", refStats)
	}
	for _, c := range []struct {
		name string
		gate func(int, int, bool) bool
	}{
		{"rule", nil},
		{"scan", func(int, int, bool) bool { return false }},
		{"grid", func(int, int, bool) bool { return true }},
	} {
		got, stats, visits, built := run(c.name, Config{forceGate: c.gate})
		assertRunsEqual(t, c.name+" vs stepped", got, refGot, stats, refStats)
		// The joiner's range compares it with about n held members per
		// data slot, so the rule passes its budget of 6 pair tests per
		// node after about six of them and builds the grid: the rule run
		// gates by comparing first and on the grid later.
		if want := c.name != "scan"; built != want {
			t.Fatalf("%s: grid built %v, want %v", c.name, built, want)
		}
		total := 0
		for _, v := range visits[1:] {
			total += v
		}
		if total >= n {
			t.Fatalf("%s: slots 1..%d visited %d nodes in all, want fewer than one slot of the stepped run", c.name, slots-1, total)
		}
	}
}
