package sinrconn

// Churn soak: a long event stream pushed through a CHAIN of derived
// Networks — each round's final result seeds the next round's Network —
// while concurrent Run readers hammer the same handles. Run with -race
// this doubles as the engine's data-race gate. The full soak streams
// ≥500 events; short mode runs a reduced chain (still real work, so the
// CI short lane exercises the concurrency paths every push).

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
)

// churnSoakHeapSlack is how many bytes of live heap the soak may leave
// behind once its chain is closed and dropped. The warm-up moves
// process-wide growth into the baseline, so what is left is a few KiB of
// runtime noise (0–5 KiB measured). The chain's final Network, kept
// reachable, holds about 33 KiB in the short soak and 94 KiB in the full
// one.
const churnSoakHeapSlack = 16 << 10

// settledHeap returns the live heap after two collections: the first frees
// the garbage, the second empties the sync.Pool victim caches the first
// left behind.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestChurnSoakDerivedChain(t *testing.T) {
	rounds, events, n := 5, 110, 96
	if testing.Short() {
		rounds, events, n = 2, 30, 48
	}
	// Warm-up: park and release more goroutines than the soak runs at
	// once (the runtime never frees a goroutine descriptor), then run a
	// one-round chain, so state anywhere in the process that fills on
	// first use is already in the heap baseline.
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 256; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
		}()
	}
	close(release)
	wg.Wait()
	churnChain(t, 1, 10, 24)
	heapBefore := settledHeap()

	total, finalN := churnChain(t, rounds, events, n)
	if !testing.Short() && total < 500 {
		t.Fatalf("soak streamed only %d events, want ≥ 500", total)
	}
	t.Logf("soak: %d events across %d-round derived chain, final n=%d", total, rounds, finalN)

	// Heap settle: once the chain is closed and dropped, nothing in the
	// process (pools, memos, parked workers) may still hold its Networks,
	// instances or results.
	if retained := int64(settledHeap()) - int64(heapBefore); retained > churnSoakHeapSlack {
		t.Fatalf("dropped chain retains %d KiB of live heap, slack %d KiB", retained>>10, churnSoakHeapSlack>>10)
	} else {
		t.Logf("heap settle: %d KiB retained after the chain (slack %d KiB)", retained>>10, churnSoakHeapSlack>>10)
	}
}

// churnChain runs rounds churn traces of events events each through a
// derived-Network chain over n points, with two concurrent readers per
// round, closes the base Network and returns the events streamed and the
// final membership.
func churnChain(t *testing.T, rounds, events, n int) (total, finalN int) {
	t.Helper()
	base, err := Open(uniformPoints(70, n))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	ctx := context.Background()

	nw := base
	for round := 0; round < rounds; round++ {
		// Concurrent readers on the SAME handle the churn engine uses.
		// Distinct seeds defeat the memo, forcing real concurrent builds.
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				res, err := nw.Run(ctx, PipelineInit, WithSeed(seed))
				if err != nil {
					// Readers share the engine's Las Vegas failure mode;
					// only unexpected errors fail the soak.
					if !errors.Is(err, ErrNotConverged) {
						t.Errorf("reader round %d: %v", round, err)
					}
					return
				}
				if err := res.Tree.Verify(); err != nil {
					t.Errorf("reader round %d: %v", round, err)
				}
			}(int64(1000*round + r))
		}

		trace := mixedTrace(int64(37+round*13), events)
		rep, err := nw.Churn(ctx, trace)
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkChurnReport(t, trace, rep)
		total += rep.Stats.Events

		next := rep.Final.Network()
		if next == nw {
			t.Fatalf("round %d returned the same handle, want a derived Network", round)
		}
		nw = next
		if nw.Len() < 2 {
			t.Logf("round %d: membership collapsed to %d, stopping chain early", round, nw.Len())
			break
		}
	}
	return total, nw.Len()
}
