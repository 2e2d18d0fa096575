package sinrconn_test

// Result-memo behavior gates (PR 7 satellites): LRU eviction order,
// re-compute-on-miss, eviction safety under concurrent readers, and the
// commit-only-on-success discipline for canceled runs. The cache
// mechanism itself is unit-tested in internal/serve/cache; these tests
// pin its integration behind Network.Run through the public API only.

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"sinrconn"

	"sinrconn/internal/faults"
	"sinrconn/internal/workload"
)

func memoPoints(seed int64, n int) []sinrconn.Point {
	g := workload.UniformSeeded(seed, n)
	pts := make([]sinrconn.Point, len(g))
	for i, p := range g {
		pts[i] = sinrconn.Point{X: p.X, Y: p.Y}
	}
	return pts
}

// TestResultMemoEvictionOrder pins the memo's LRU discipline end to end:
// least-recently-used specs fall out first, touched specs survive, and a
// miss after eviction re-computes (identical bytes, fresh entry).
func TestResultMemoEvictionOrder(t *testing.T) {
	ctx := context.Background()
	pts := memoPoints(1, 22)

	run := func(nw *sinrconn.Network, seed int64) (*sinrconn.Result, bool) {
		t.Helper()
		r, cached, err := nw.RunCached(ctx, sinrconn.PipelineInit, sinrconn.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return r, cached
	}

	for _, tc := range []struct {
		name string
		size int
		// ops is the access sequence by seed; hit[i] is the expected
		// cache outcome of ops[i].
		ops []int64
		hit []bool
	}{
		{
			name: "capacity-2-evicts-oldest",
			size: 2,
			//                 1:miss 2:miss 3:miss(evict 1) 1:miss(evict 2) 3:hit
			ops: []int64{1, 2, 3, 1, 3},
			hit: []bool{false, false, false, false, true},
		},
		{
			name: "touch-refreshes-recency",
			size: 2,
			//                 1:miss 2:miss 1:hit 3:miss(evicts 2, NOT 1) 1:hit 2:miss
			ops: []int64{1, 2, 1, 3, 1, 2},
			hit: []bool{false, false, true, false, true, false},
		},
		{
			name: "capacity-1-thrashes",
			size: 1,
			ops:  []int64{1, 2, 1, 1},
			hit:  []bool{false, false, false, true},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := sinrconn.Open(pts, sinrconn.WithSeed(1), sinrconn.WithResultCache(tc.size, 0))
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			bySeed := map[int64][]byte{}
			for i, seed := range tc.ops {
				r, cached := run(nw, seed)
				if cached != tc.hit[i] {
					t.Fatalf("op %d (seed %d): cached = %v, want %v", i, seed, cached, tc.hit[i])
				}
				// Re-computation after eviction must reproduce the exact
				// result (constructions are deterministic).
				raw, err := json.Marshal(r.Metrics)
				if err != nil {
					t.Fatal(err)
				}
				if prev, ok := bySeed[seed]; ok && string(prev) != string(raw) {
					t.Fatalf("op %d (seed %d): recomputed result diverges\n was: %s\n now: %s", i, seed, prev, raw)
				}
				bySeed[seed] = raw
			}
			st := nw.CacheStats()
			wantMiss, wantHit := uint64(0), uint64(0)
			for _, h := range tc.hit {
				if h {
					wantHit++
				} else {
					wantMiss++
				}
			}
			if st.Hits != wantHit || st.Misses != wantMiss {
				t.Fatalf("stats = %+v, want %d hits / %d misses", st, wantHit, wantMiss)
			}
			if st.Size > tc.size {
				t.Fatalf("cache holds %d entries past capacity %d", st.Size, tc.size)
			}
			if wantEvict := wantMiss - uint64(min(int(wantMiss), tc.size)); st.Evictions != wantEvict {
				t.Fatalf("evictions = %d, want %d", st.Evictions, wantEvict)
			}
		})
	}
}

// TestResultMemoEvictionConcurrentReaders holds a *Result while its memo
// entry is evicted and overwritten under churn from concurrent runners:
// the held result must stay bit-stable (eviction drops the reference, it
// never mutates or recycles the object). Run with -race.
func TestResultMemoEvictionConcurrentReaders(t *testing.T) {
	ctx := context.Background()
	pts := memoPoints(2, 22)
	nw, err := sinrconn.Open(pts, sinrconn.WithSeed(1), sinrconn.WithResultCache(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	held, _, err := nw.RunCached(ctx, sinrconn.PipelineInit, sinrconn.WithSeed(100))
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := json.Marshal(held)
	if err != nil {
		t.Fatal(err)
	}

	// Churn the capacity-1 memo from several goroutines (every new seed
	// evicts the previous entry) while re-reading the held result.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				seed := int64(200 + 10*g + i)
				if _, _, err := nw.RunCached(ctx, sinrconn.PipelineInit, sinrconn.WithSeed(seed)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 64; i++ {
			raw, err := json.Marshal(held)
			if err != nil {
				t.Error(err)
				return
			}
			if string(raw) != string(snapshot) {
				t.Errorf("held result mutated during eviction churn\n was: %s\n now: %s", snapshot, raw)
				return
			}
		}
	}()
	wg.Wait()
	<-readerDone

	if st := nw.CacheStats(); st.Evictions == 0 {
		t.Fatalf("stats = %+v: churn produced no evictions, test exercised nothing", st)
	}
	// The held result still verifies after its entry died.
	if raw, _ := json.Marshal(held); string(raw) != string(snapshot) {
		t.Fatal("held result differs after churn")
	}
}

// TestRunCanceledCommitsNothing pins the satellite-4 fix: a Run canceled
// between slots must leave NO memo entry — a later identical query
// re-computes from scratch rather than observing a half-populated result,
// and a concurrent identical query gets a complete, valid result.
func TestRunCanceledCommitsNothing(t *testing.T) {
	ctx := context.Background()
	pts := memoPoints(3, 26)
	nw, err := sinrconn.Open(pts, sinrconn.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	// Cancel from inside the run, after the first simulator slot: the
	// engine observes the dead context at the next slot boundary.
	cctx, cancel := context.WithCancel(ctx)
	_, _, err = nw.RunCached(cctx, sinrconn.PipelineInit,
		sinrconn.WithSeed(7),
		sinrconn.WithObserver(func(sinrconn.SlotEvent) { cancel() }))
	if err == nil {
		t.Fatal("run canceled mid-flight returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	st := nw.CacheStats()
	if st.Size != 0 {
		t.Fatalf("canceled run committed a memo entry: %+v", st)
	}

	// The identical query now computes cleanly and reports a miss — it
	// never sees the canceled run's partial state.
	res, cached, err := nw.RunCached(ctx, sinrconn.PipelineInit, sinrconn.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("query after canceled run was served from cache")
	}
	if res.Metrics.SlotsUsed <= 0 || res.Tree.NumNodes != len(pts) {
		t.Fatalf("recomputed result malformed: %+v", res.Metrics)
	}

	// Concurrent shape: one runner self-cancels mid-run while another
	// issues the identical query with a live context. Whatever the
	// interleaving, the live query must produce the full, correct result.
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		nw2, err := sinrconn.Open(pts, sinrconn.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		c2, cancel2 := context.WithCancel(ctx)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			nw2.RunCached(c2, sinrconn.PipelineInit,
				sinrconn.WithSeed(7),
				sinrconn.WithObserver(func(sinrconn.SlotEvent) { cancel2() }))
		}()
		live, _, err := nw2.RunCached(ctx, sinrconn.PipelineInit, sinrconn.WithSeed(7))
		wg.Wait()
		cancel2()
		if err != nil {
			t.Fatalf("round %d: live query failed: %v", round, err)
		}
		got, _ := json.Marshal(live)
		if string(got) != string(want) {
			t.Fatalf("round %d: live query diverges from reference\n got: %s\nwant: %s", round, got, want)
		}
		nw2.Close()
	}
}

// cancelOnSlot is a fault injector that cancels the context it holds at
// the first engine slot after it is armed, so a test can cancel a run
// inside a compute it cannot observe.
type cancelOnSlot struct {
	mu     sync.Mutex
	cancel context.CancelFunc
}

func (c *cancelOnSlot) arm(cancel context.CancelFunc) {
	c.mu.Lock()
	c.cancel = cancel
	c.mu.Unlock()
}

func (c *cancelOnSlot) Fire(site faults.Site) (faults.Action, bool) {
	if site == faults.SimSlotSlow {
		c.mu.Lock()
		if c.cancel != nil {
			c.cancel()
			c.cancel = nil
		}
		c.mu.Unlock()
	}
	return faults.Action{}, false
}

// TestRescheduleMeanSharesInit pins that PipelineRescheduleMean takes the
// tree it reschedules from the memoized PipelineInit result of the same
// settings: one Init construction per seed in either call order, the
// same result in both orders, nothing committed when the nested Init is
// canceled, and no deadlock between concurrent Init and RescheduleMean
// leaders. Run with -race.
func TestRescheduleMeanSharesInit(t *testing.T) {
	ctx := context.Background()
	pts := memoPoints(4, 24)
	seed := sinrconn.WithSeed(7)
	open := func(t *testing.T, opts ...sinrconn.Option) *sinrconn.Network {
		t.Helper()
		nw, err := sinrconn.Open(pts, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nw.Close() })
		return nw
	}
	run := func(t *testing.T, nw *sinrconn.Network, ctx context.Context, p sinrconn.Pipeline) (*sinrconn.Result, bool) {
		t.Helper()
		r, cached, err := nw.RunCached(ctx, p, seed)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		return r, cached
	}
	marshal := func(t *testing.T, r *sinrconn.Result) string {
		t.Helper()
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	ref := open(t)
	refInit, _ := run(t, ref, ctx, sinrconn.PipelineInit)
	refRM, _ := run(t, ref, ctx, sinrconn.PipelineRescheduleMean)

	t.Run("init-first", func(t *testing.T) {
		nw := open(t)
		run(t, nw, ctx, sinrconn.PipelineInit)
		st0 := nw.CacheStats()
		run(t, nw, ctx, sinrconn.PipelineRescheduleMean)
		st1 := nw.CacheStats()
		if d := st1.Computes - st0.Computes; d != 1 {
			t.Errorf("RescheduleMean after Init ran %d computes, want 1", d)
		}
		if d := st1.Hits - st0.Hits; d != 1 {
			t.Errorf("RescheduleMean after Init made %d memo hits, want 1 (its Init)", d)
		}
	})

	t.Run("reschedule-first", func(t *testing.T) {
		nw := open(t)
		run(t, nw, ctx, sinrconn.PipelineRescheduleMean)
		if st := nw.CacheStats(); st.Computes != 2 || st.Size != 2 {
			t.Errorf("cold RescheduleMean: %d computes, %d entries, want 2 and 2", st.Computes, st.Size)
		}
		r1, cached1 := run(t, nw, ctx, sinrconn.PipelineInit)
		r2, cached2 := run(t, nw, ctx, sinrconn.PipelineInit)
		if !cached1 || !cached2 || r1 != r2 {
			t.Errorf("Init after RescheduleMean: cached %v/%v, same *Result %v; want a hit on the committed Init", cached1, cached2, r1 == r2)
		}
		if got := marshal(t, r1); got != marshal(t, refInit) {
			t.Errorf("Init committed by RescheduleMean diverges from a plain Init\n got: %s\nwant: %s", got, marshal(t, refInit))
		}
		if st := nw.CacheStats(); st.Computes != 2 {
			t.Errorf("Init after RescheduleMean computed: %d computes, want 2", st.Computes)
		}
	})

	t.Run("orders-agree", func(t *testing.T) {
		for _, cfg := range []struct {
			name string
			opts []sinrconn.Option
		}{
			{"fresh", nil},
			{"cache-1", []sinrconn.Option{sinrconn.WithResultCache(1, 0)}},
		} {
			initFirst := open(t, cfg.opts...)
			run(t, initFirst, ctx, sinrconn.PipelineInit)
			a, _ := run(t, initFirst, ctx, sinrconn.PipelineRescheduleMean)
			b, _ := run(t, open(t, cfg.opts...), ctx, sinrconn.PipelineRescheduleMean)
			for _, r := range []*sinrconn.Result{a, b} {
				if r.Metrics != refRM.Metrics {
					t.Errorf("%s: metrics %+v, want %+v", cfg.name, r.Metrics, refRM.Metrics)
				}
				if got := marshal(t, r); got != marshal(t, refRM) {
					t.Errorf("%s: result diverges\n got: %s\nwant: %s", cfg.name, got, marshal(t, refRM))
				}
			}
		}
	})

	t.Run("canceled-nested-init", func(t *testing.T) {
		inj := &cancelOnSlot{}
		nw := open(t, sinrconn.WithFaultInjector(inj))
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		inj.arm(cancel) // the first slot of the run is its nested Init's
		_, _, err := nw.RunCached(cctx, sinrconn.PipelineRescheduleMean, seed)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled in chain", err)
		}
		if st := nw.CacheStats(); st.Size != 0 || st.Computes != 2 || st.Errors != 2 {
			t.Fatalf("canceled run: %+v, want 0 entries and 2 failed computes", st)
		}
		r, cached := run(t, nw, ctx, sinrconn.PipelineRescheduleMean)
		if cached || marshal(t, r) != marshal(t, refRM) {
			t.Fatalf("retry after cancel: cached %v, result %s, want a fresh compute of %s", cached, marshal(t, r), marshal(t, refRM))
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		nw := open(t)
		var wg sync.WaitGroup
		start := make(chan struct{}) // released together, so the runs overlap
		results := make([]*sinrconn.Result, 8)
		for g := range results {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				p := sinrconn.PipelineInit
				if g%2 == 1 {
					p = sinrconn.PipelineRescheduleMean
				}
				r, _, err := nw.RunCached(ctx, p, seed)
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = r
			}(g)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		if st := nw.CacheStats(); st.Computes != 2 {
			t.Errorf("8 concurrent runs: %d computes, want 2", st.Computes)
		}
		for g, r := range results {
			want := refInit
			if g%2 == 1 {
				want = refRM
			}
			if marshal(t, r) != marshal(t, want) {
				t.Errorf("goroutine %d: result diverges from the reference", g)
			}
		}
	})
}

// TestObservedRescheduleMeanStreamsInit pins the streaming contract of an
// observed RescheduleMean: it computes privately, so its observer sees
// Init's slots and the scheduler's even when the session has already
// memoized the Init it reschedules. That replay only streams: the
// memoized Init result stays the one the session holds.
func TestObservedRescheduleMeanStreamsInit(t *testing.T) {
	ctx := context.Background()
	pts := memoPoints(5, 24)
	observed := func(nw *sinrconn.Network, p sinrconn.Pipeline) (*sinrconn.Result, int) {
		t.Helper()
		events := 0
		r, err := nw.Run(ctx, p, sinrconn.WithSeed(3), sinrconn.WithObserver(func(sinrconn.SlotEvent) { events++ }))
		if err != nil {
			t.Fatal(err)
		}
		return r, events
	}

	open := func() *sinrconn.Network {
		t.Helper()
		nw, err := sinrconn.Open(pts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nw.Close() })
		return nw
	}
	_, initEvents := observed(open(), sinrconn.PipelineInit)
	coldRM, coldEvents := observed(open(), sinrconn.PipelineRescheduleMean)

	warm := open()
	warmInit, err := warm.Run(ctx, sinrconn.PipelineInit, sinrconn.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	warmRM, warmEvents := observed(warm, sinrconn.PipelineRescheduleMean)
	if again, err := warm.Run(ctx, sinrconn.PipelineInit, sinrconn.WithSeed(3)); err != nil || again != warmInit {
		t.Errorf("after an observed RescheduleMean the memo serves Init %p (err %v), want the memoized %p", again, err, warmInit)
	}

	if initEvents == 0 || coldEvents <= initEvents {
		t.Fatalf("observed Init streamed %d events and RescheduleMean %d: want the scheduler's slots on top of Init's", initEvents, coldEvents)
	}
	if warmEvents != coldEvents {
		t.Errorf("observed RescheduleMean after a memoized Init streamed %d events, want %d (Init's %d plus the scheduler's)", warmEvents, coldEvents, initEvents)
	}
	if warmRM.Metrics != coldRM.Metrics {
		t.Errorf("observed RescheduleMean metrics %+v after a memoized Init, want %+v", warmRM.Metrics, coldRM.Metrics)
	}
}
