package sim

import (
	"math"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
)

// scripted replays a fixed slot-indexed action sequence and records every
// inbox it sees.
type scripted struct {
	actions []Action
	seen    [][]Delivery
}

func (s *scripted) Step(slot int, inbox []Delivery) Action {
	cp := make([]Delivery, len(inbox))
	copy(cp, inbox)
	s.seen = append(s.seen, cp)
	if slot < len(s.actions) {
		return s.actions[slot]
	}
	return Idle()
}

func lineInstance(t testing.TB, xs ...float64) *sinr.Instance {
	t.Helper()
	pts := make([]geom.Point, len(xs))
	for i, x := range xs {
		pts[i] = geom.Point{X: x}
	}
	return sinr.MustInstance(pts, sinr.DefaultParams())
}

func mustEngine(t testing.TB, in *sinr.Instance, procs []Protocol, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(in, procs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSingleTransmitterDelivered(t *testing.T) {
	in := lineInstance(t, 0, 3, 6)
	p := in.Params()
	msg := Message{Kind: KindBroadcast, From: 0, To: NoAddressee}
	sender := &scripted{actions: []Action{Transmit(p.SafePower(8), msg)}}
	l1 := &scripted{actions: []Action{Listen()}}
	l2 := &scripted{actions: []Action{Listen()}}
	e := mustEngine(t, in, []Protocol{sender, l1, l2}, Config{Workers: 1})
	e.Run(2) // slot 0 transmits; slot 1 exposes the inbox

	for i, l := range []*scripted{l1, l2} {
		if len(l.seen) != 2 || len(l.seen[1]) != 1 {
			t.Fatalf("listener %d inbox history %v, want delivery at slot 1", i+1, l.seen)
		}
		d := l.seen[1][0]
		if d.Msg != msg {
			t.Errorf("listener %d got %+v", i+1, d.Msg)
		}
		wantDist := in.Dist(0, i+1)
		if math.Abs(d.Dist-wantDist) > 1e-9 {
			t.Errorf("listener %d Dist = %v, want %v", i+1, d.Dist, wantDist)
		}
		if d.SINR < p.Beta {
			t.Errorf("listener %d SINR = %v below beta", i+1, d.SINR)
		}
		if d.Slot != 0 {
			t.Errorf("listener %d Slot = %d, want 0", i+1, d.Slot)
		}
	}
	st := e.Stats()
	if st.Transmissions != 1 || st.Deliveries != 2 || st.Slots != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCollisionBetweenEqualSenders(t *testing.T) {
	// Two equal-power senders equidistant from a central listener: SINR ≈ 1
	// < β = 1.5, so nothing is decodable.
	in := lineInstance(t, 0, 5, 10)
	p := in.Params()
	pw := p.SafePower(8)
	msg := Message{Kind: KindBroadcast}
	s1 := &scripted{actions: []Action{Transmit(pw, msg)}}
	mid := &scripted{actions: []Action{Listen()}}
	s2 := &scripted{actions: []Action{Transmit(pw, msg)}}
	e := mustEngine(t, in, []Protocol{s1, mid, s2}, Config{Workers: 1})
	e.Run(2)

	if len(mid.seen[1]) != 0 {
		t.Fatalf("middle listener decoded despite collision: %+v", mid.seen[1])
	}
	if st := e.Stats(); st.Collisions != 1 {
		t.Errorf("collisions = %d, want 1", st.Collisions)
	}
}

func TestCaptureEffect(t *testing.T) {
	// A much closer sender is decoded despite a far interferer.
	in := lineInstance(t, 0, 1, 100)
	p := in.Params()
	near := &scripted{actions: []Action{Transmit(p.SafePower(2), Message{From: 0})}}
	listener := &scripted{actions: []Action{Listen()}}
	far := &scripted{actions: []Action{Transmit(p.SafePower(2), Message{From: 2})}}
	e := mustEngine(t, in, []Protocol{near, listener, far}, Config{Workers: 1})
	e.Run(2)

	if len(listener.seen[1]) != 1 || listener.seen[1][0].Msg.From != 0 {
		t.Fatalf("capture failed: inbox %+v", listener.seen[1])
	}
}

func TestHalfDuplex(t *testing.T) {
	// Two mutual transmitters: neither receives the other's message.
	in := lineInstance(t, 0, 2)
	p := in.Params()
	a := &scripted{actions: []Action{Transmit(p.SafePower(2), Message{From: 0})}}
	b := &scripted{actions: []Action{Transmit(p.SafePower(2), Message{From: 1})}}
	e := mustEngine(t, in, []Protocol{a, b}, Config{Workers: 1})
	e.Run(2)
	if len(a.seen[1]) != 0 || len(b.seen[1]) != 0 {
		t.Fatal("transmitting node received a message (half-duplex violated)")
	}
}

func TestIdleNodesReceiveNothing(t *testing.T) {
	in := lineInstance(t, 0, 2)
	p := in.Params()
	a := &scripted{actions: []Action{Transmit(p.SafePower(2), Message{From: 0})}}
	b := &scripted{actions: []Action{Idle()}}
	e := mustEngine(t, in, []Protocol{a, b}, Config{Workers: 1})
	e.Run(2)
	if len(b.seen[1]) != 0 {
		t.Fatal("idle node received a message")
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	// The same scripted schedule must produce identical stats for 1 and 8
	// workers.
	run := func(workers int) Stats {
		in := lineInstance(t, 0, 2, 4, 6, 8, 10, 12, 14, 16, 18)
		p := in.Params()
		procs := make([]Protocol, in.Len())
		for i := range procs {
			var acts []Action
			for s := 0; s < 10; s++ {
				if (s+i)%3 == 0 {
					acts = append(acts, Transmit(p.SafePower(3), Message{From: i}))
				} else {
					acts = append(acts, Listen())
				}
			}
			procs[i] = &scripted{actions: acts}
		}
		e := mustEngine(t, in, procs, Config{Workers: workers, DropProb: 0.2, Seed: 99})
		defer e.Close()
		e.Run(10)
		return e.Stats()
	}
	a, b := run(1), run(8)
	if a != b {
		t.Fatalf("stats differ across worker counts: %+v vs %+v", a, b)
	}
}

func TestDropInjection(t *testing.T) {
	// With DropProb ≈ 1 - tiny, most deliveries are dropped; with 0, none.
	count := func(drop float64) (delivered, dropped int) {
		in := lineInstance(t, 0, 3)
		p := in.Params()
		var sActs, lActs []Action
		for s := 0; s < 200; s++ {
			sActs = append(sActs, Transmit(p.SafePower(4), Message{From: 0}))
			lActs = append(lActs, Listen())
		}
		s := &scripted{actions: sActs}
		l := &scripted{actions: lActs}
		e := mustEngine(t, in, []Protocol{s, l}, Config{Workers: 1, DropProb: drop, Seed: 7})
		e.Run(200)
		st := e.Stats()
		return st.Deliveries, st.Dropped
	}
	d0, drop0 := count(0)
	if d0 != 200 || drop0 != 0 {
		t.Fatalf("no-drop run: delivered %d dropped %d", d0, drop0)
	}
	dHalf, dropHalf := count(0.5)
	if dHalf+dropHalf != 200 {
		t.Fatalf("accounting broken: %d + %d != 200", dHalf, dropHalf)
	}
	if dropHalf < 60 || dropHalf > 140 {
		t.Fatalf("drop count %d far from expectation 100", dropHalf)
	}
}

func TestRunUntil(t *testing.T) {
	in := lineInstance(t, 0, 2)
	a := &scripted{}
	b := &scripted{}
	e := mustEngine(t, in, []Protocol{a, b}, Config{Workers: 1})
	ran := e.RunUntil(100, func() bool { return e.Slot() >= 5 })
	if ran != 5 || e.Slot() != 5 {
		t.Errorf("ran %d slots, engine at %d", ran, e.Slot())
	}
	ran = e.RunUntil(3, func() bool { return false })
	if ran != 3 {
		t.Errorf("capped run executed %d slots", ran)
	}
}

func TestNewEngineValidation(t *testing.T) {
	in := lineInstance(t, 0, 2)
	if _, err := NewEngine(in, []Protocol{&scripted{}}, Config{}); err == nil {
		t.Error("mismatched protocol count accepted")
	}
	if _, err := NewEngine(in, []Protocol{&scripted{}, &scripted{}}, Config{DropProb: 1.5}); err == nil {
		t.Error("invalid drop probability accepted")
	}
	if _, err := NewEngine(in, []Protocol{&scripted{}, &scripted{}}, Config{DropProb: -0.1}); err == nil {
		t.Error("negative drop probability accepted")
	}
	if _, err := NewEngine(in, []Protocol{&scripted{}, &scripted{}}, Config{DropProb: math.NaN()}); err == nil {
		t.Error("NaN drop probability accepted")
	}
}

func TestAddressedAckSemantics(t *testing.T) {
	// Receivers see the To field and can filter acknowledgments addressed
	// to someone else; the engine itself delivers to every listener.
	in := lineInstance(t, 0, 2, 4)
	p := in.Params()
	ack := Message{Kind: KindAck, From: 0, To: 2}
	s := &scripted{actions: []Action{Transmit(p.SafePower(5), ack)}}
	other := &scripted{actions: []Action{Listen()}}
	target := &scripted{actions: []Action{Listen()}}
	e := mustEngine(t, in, []Protocol{s, other, target}, Config{Workers: 1})
	e.Run(2)
	if len(target.seen[1]) != 1 || target.seen[1][0].Msg.To != 2 {
		t.Fatal("target did not receive addressed ack")
	}
	if len(other.seen[1]) != 1 || other.seen[1][0].Msg.To != 2 {
		t.Fatal("bystander should overhear the ack (and ignore it by To)")
	}
}

func BenchmarkEngineSlot(b *testing.B) {
	n := 256
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i%16) * 2, Y: float64(i/16) * 2}
	}
	in := sinr.MustInstance(pts, sinr.DefaultParams())
	p := in.Params()
	procs := make([]Protocol, n)
	for i := range procs {
		var acts []Action
		for s := 0; s < 1; s++ {
			if i%4 == 0 {
				acts = append(acts, Transmit(p.SafePower(4), Message{From: i}))
			} else {
				acts = append(acts, Listen())
			}
		}
		procs[i] = &repeat{act: acts[0]}
	}
	e, err := NewEngine(in, procs, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

type repeat struct{ act Action }

func (r *repeat) Step(int, []Delivery) Action { return r.act }
