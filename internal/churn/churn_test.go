package churn

import (
	"math/rand"
	"slices"
	"testing"

	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
	"sinrconn/internal/workload"
)

func testState(t *testing.T, n int, seed int64) State {
	t.Helper()
	pts := workload.UniformDensity(rand.New(rand.NewSource(seed)), n, 0.15)
	alive := make([]int, n)
	links := make([]sinr.Link, 0, n-1)
	for i := range alive {
		alive[i] = i
		if i > 0 {
			links = append(links, sinr.Link{From: i, To: i - 1})
		}
	}
	return State{Points: pts, Alive: alive, Links: links}
}

func TestGeneratorDeterministic(t *testing.T) {
	st := testState(t, 40, 1)
	run := func() []Event {
		g, err := NewGenerator(42, Rates{Join: 1, Fail: 2, Burst: 0.3, Shower: 0.5, Move: 1}, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		var evs []Event
		for i := 0; i < 50; i++ {
			ev, err := g.Next(st)
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, ev)
		}
		return evs
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Time != b[i].Time ||
			len(a[i].Nodes) != len(b[i].Nodes) || a[i].Point != b[i].Point {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorEventMix(t *testing.T) {
	st := testState(t, 60, 2)
	g, err := NewGenerator(7, Rates{Join: 1, Fail: 1, Burst: 0.2, Shower: 0.4, Move: 0.8}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Kind]int{}
	last := 0.0
	for i := 0; i < 600; i++ {
		ev, err := g.Next(st)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Time <= last {
			t.Fatalf("time went backwards: %v after %v", ev.Time, last)
		}
		last = ev.Time
		counts[ev.Kind]++
		switch ev.Kind {
		case KindJoin:
			for _, q := range st.Points {
				if q.Dist(ev.Point) < 1 {
					t.Fatalf("join at %v violates min spacing", ev.Point)
				}
			}
		case KindFail:
			if len(ev.Nodes) != 1 {
				t.Fatalf("fail with %d victims", len(ev.Nodes))
			}
		case KindBurst:
			if len(ev.Nodes) == 0 || len(ev.Nodes) >= len(st.Alive) {
				t.Fatalf("burst of size %d out of %d alive", len(ev.Nodes), len(st.Alive))
			}
		case KindShower:
			if len(ev.Links) == 0 || len(ev.Links) > 3 {
				t.Fatalf("shower of %d links (max 3)", len(ev.Links))
			}
		}
	}
	// Every kind with positive rate fires at least once in 600 draws.
	for _, k := range []Kind{KindJoin, KindFail, KindBurst, KindShower, KindMove} {
		if counts[k] == 0 {
			t.Fatalf("kind %v never fired: %v", k, counts)
		}
	}
	// Rough weight sanity: fail (rate 1) fires more than burst (rate 0.2).
	if counts[KindFail] < counts[KindBurst] {
		t.Fatalf("rate weights ignored: fail=%d burst=%d", counts[KindFail], counts[KindBurst])
	}
}

func TestGeneratorBurstIsDisc(t *testing.T) {
	st := testState(t, 80, 3)
	g, err := NewGenerator(11, Rates{Burst: 1}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := g.Next(st)
	if err != nil {
		t.Fatal(err)
	}
	// All victims fit in a disc of the burst radius around SOME alive node:
	// check pairwise diameter ≤ 2r.
	for i := range ev.Nodes {
		for j := i + 1; j < len(ev.Nodes); j++ {
			if d := st.Points[ev.Nodes[i]].Dist(st.Points[ev.Nodes[j]]); d > 12 {
				t.Fatalf("burst victims %.1f apart, radius 6", d)
			}
		}
	}
}

func TestGeneratorImpossibleKinds(t *testing.T) {
	// Only failures enabled but a single alive node: nothing can ever fire.
	st := State{Points: []geom.Point{{X: 0, Y: 0}}, Alive: []int{0}}
	g, err := NewGenerator(1, Rates{Fail: 1}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Next(st); err == nil {
		t.Fatal("impossible state produced an event")
	}
	if _, err := NewGenerator(1, Rates{}, 4, 3); err == nil {
		t.Fatal("all-zero rates accepted")
	}
}

func TestDamperTripsAndExpires(t *testing.T) {
	d := NewDamper(3, 10, 20, 4)
	p := geom.Point{X: 1, Y: 1}
	d.Record(p, 0)
	d.Record(p, 1)
	if d.Damped(p, 1.5) {
		t.Fatal("damped after only 2 failures")
	}
	d.Record(p, 2)
	if !d.Damped(p, 2.5) {
		t.Fatal("not damped after 3 failures in window")
	}
	if !d.Damped(p, 21.9) {
		t.Fatal("quarantine expired early (cooldown 20 from t=2)")
	}
	if d.Damped(p, 22.1) {
		t.Fatal("quarantine never expired")
	}
}

func TestDamperWindowSlides(t *testing.T) {
	d := NewDamper(3, 5, 20, 4)
	p := geom.Point{X: 0, Y: 0}
	d.Record(p, 0)
	d.Record(p, 10)
	d.Record(p, 20) // never 3 within any 5-unit window
	if d.Damped(p, 21) {
		t.Fatal("damped although failures were spread out")
	}
}

func TestDamperNeighborCells(t *testing.T) {
	// Failures just either side of a cell boundary still count as one
	// region (neighbor charging).
	d := NewDamper(3, 10, 20, 4)
	a := geom.Point{X: 3.9, Y: 0}
	b := geom.Point{X: 4.1, Y: 0}
	d.Record(a, 0)
	d.Record(b, 1)
	d.Record(a, 2)
	if !d.Damped(b, 3) {
		t.Fatal("boundary-straddling flapping not damped")
	}
}

// TestDamperQuietMatchesScan drives a damper through quarantines that
// start, hold and expire over a jittered grid, with failures flapping in
// two regions at different times, and requires at every step that the
// points Damped finds are none when Quiet holds, so that skipping the scan
// then lists the same muted points as the full scan. Quiet must hold
// before the first quarantine, between them and after the last, and fail
// while one holds.
func TestDamperQuietMatchesScan(t *testing.T) {
	pts := workload.JitteredGrid(rand.New(rand.NewSource(9)), 256, 2.6, 0.8)
	d := NewDamper(3, 10, 20, 4)
	scan := func(now float64) []int {
		var out []int
		for v, p := range pts {
			if d.Damped(p, now) {
				out = append(out, v)
			}
		}
		return out
	}
	skipped := func(now float64) []int {
		if d.Quiet(now) {
			return nil
		}
		return scan(now)
	}
	// Region a flaps at t = 5, 6, 7 (quarantined until 27), region b at
	// t = 40, 41, 42 (until 62); a single failure at t = 30 trips nothing.
	fail := map[float64]geom.Point{
		5: pts[17], 6: pts[18], 7: pts[17], 30: pts[200],
		40: pts[120], 41: pts[121], 42: pts[120],
	}
	var quiet, loud int
	for now := 0.0; now <= 80; now += 0.5 {
		if p, ok := fail[now]; ok {
			d.Record(p, now)
		}
		full, fast := scan(now), skipped(now)
		if !slices.Equal(full, fast) {
			t.Fatalf("t=%v: muted %v with the skip, %v by the full scan", now, fast, full)
		}
		wantQuiet := now < 7 || now >= 27 && now < 42 || now >= 62
		if d.Quiet(now) != wantQuiet {
			t.Fatalf("t=%v: Quiet = %v, want %v", now, d.Quiet(now), wantQuiet)
		}
		if wantQuiet {
			quiet++
		} else if len(full) == 0 {
			t.Fatalf("t=%v: a quarantine holds but no point is damped", now)
		} else {
			loud++
		}
	}
	if quiet == 0 || loud == 0 {
		t.Fatalf("%d quiet and %d quarantined steps, want both", quiet, loud)
	}
}

// TestDamperMutedMatchesScan replays a failure-heavy trace, recording
// every failure and burst in a damper and admitting only undamped joins,
// and at every step, and between steps as quarantines lapse, compares
// Muted with testing each alive node through Damped, in order. Then it
// quarantines regions too far apart for Muted's mask, which must fall back
// to the lookups.
func TestDamperMutedMatchesScan(t *testing.T) {
	st := testState(t, 160, 9)
	g, err := NewGenerator(17, Rates{Join: 1, Fail: 2, Burst: 1}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDamper(3, 12, 40, 4)
	check := func(d *Damper, now float64) int {
		var want []int
		for _, v := range st.Alive {
			if d.Damped(st.Points[v], now) {
				want = append(want, v)
			}
		}
		got := d.Muted(now, st.Points, st.Alive)
		if !slices.Equal(got, want) {
			t.Fatalf("t=%.2f: Muted %v, scan %v", now, got, want)
		}
		return len(got)
	}
	muted, quiet := 0, 0
	for k := 0; k < 300 && len(st.Alive) > 8; k++ {
		ev, err := g.Next(st)
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case KindJoin:
			if !d.Damped(ev.Point, ev.Time) {
				st.Points = append(st.Points, ev.Point)
				st.Alive = append(st.Alive, len(st.Points)-1)
			}
		case KindFail, KindBurst:
			for _, v := range ev.Nodes {
				d.Record(st.Points[v], ev.Time)
			}
			st.Alive = slices.DeleteFunc(st.Alive, func(v int) bool { return slices.Contains(ev.Nodes, v) })
		}
		for _, dt := range []float64{0, 5, 20, 39.9, 40.1} {
			if check(d, ev.Time+dt) > 0 {
				muted++
			} else if d.Quiet(ev.Time + dt) {
				quiet++
			}
		}
	}
	if muted == 0 || quiet == 0 {
		t.Fatalf("%d checks muted a member and %d found no quarantine; want both", muted, quiet)
	}

	far := NewDamper(1, 1, 10, 4)
	far.Record(st.Points[st.Alive[0]], 0)
	for _, x := range []float64{1e6, 1e300, -1e300} {
		st.Points = append(st.Points, geom.Point{X: x})
		st.Alive = append(st.Alive, len(st.Points)-1)
		far.Record(st.Points[len(st.Points)-1], 0)
		if check(far, 5) < 2 {
			t.Fatalf("x=%g: the far quarantines muted too few members", x)
		}
	}
}
