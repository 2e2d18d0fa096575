package sim

import (
	"testing"
)

func TestObserverSeesEverySlot(t *testing.T) {
	in := lineInstance(t, 0, 3)
	p := in.Params()
	var acts []Action
	for s := 0; s < 6; s++ {
		if s%2 == 0 {
			acts = append(acts, Transmit(p.SafePower(4), Message{From: 0}))
		} else {
			acts = append(acts, Listen())
		}
	}
	sender := &scripted{actions: acts}
	listener := &scripted{actions: []Action{Listen(), Listen(), Listen(), Listen(), Listen(), Listen()}}

	var events []SlotEvent
	e, err := NewEngine(in, []Protocol{sender, listener}, Config{
		Observer: func(ev SlotEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(6)
	if len(events) != 6 {
		t.Fatalf("observer saw %d events, want 6", len(events))
	}
	for i, ev := range events {
		if ev.Slot != i {
			t.Errorf("event %d has slot %d", i, ev.Slot)
		}
		wantSenders := 0
		if i%2 == 0 {
			wantSenders = 1
		}
		if ev.Senders != wantSenders {
			t.Errorf("slot %d: senders = %d, want %d", i, ev.Senders, wantSenders)
		}
		if ev.Deliveries != wantSenders {
			t.Errorf("slot %d: deliveries = %d, want %d", i, ev.Deliveries, wantSenders)
		}
	}
}

func TestEnergyAccounting(t *testing.T) {
	in := lineInstance(t, 0, 3)
	pw := in.Params().SafePower(4)
	sender := &scripted{actions: []Action{
		Transmit(pw, Message{From: 0}),
		Transmit(pw, Message{From: 0}),
		Listen(),
	}}
	listener := &scripted{actions: []Action{Listen(), Listen(), Listen()}}
	e := mustEngine(t, in, []Protocol{sender, listener}, Config{})
	e.Run(3)
	want := 2 * pw
	if got := e.Stats().Energy; got != want {
		t.Errorf("Energy = %v, want %v", got, want)
	}
}

func TestEnergyZeroWithoutTransmissions(t *testing.T) {
	in := lineInstance(t, 0, 3)
	a := &scripted{}
	b := &scripted{}
	e := mustEngine(t, in, []Protocol{a, b}, Config{})
	e.Run(4)
	if got := e.Stats().Energy; got != 0 {
		t.Errorf("Energy = %v, want 0", got)
	}
}
