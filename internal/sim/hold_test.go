package sim

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
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
		kinds = append(kinds, e.actions[1].Kind)
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
