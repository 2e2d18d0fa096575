package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"sinrconn/internal/churn"
	"sinrconn/internal/faults"
	"sinrconn/internal/serve"
)

// settleGoroutines mirrors the serve package's shared leak gate (it
// cannot be imported across the package boundary): baseline at call,
// settle-back check after cleanup.
func settleGoroutines(t *testing.T) {
	t.Helper()
	runtime.GC()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(10 * time.Second)
		for {
			runtime.GC()
			if g := runtime.NumGoroutine(); g <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutines leaked: before=%d after=%d\n%s", before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

// chaosHeapSlack is how many bytes of live heap the chaos soak may leave
// behind once its daemon is closed. The warm-up moves process-wide growth
// into the baseline; what is left is the fault plan's counters, the
// report and a few KiB of runtime noise (2–8 KiB measured). A daemon
// left open, its one deployment of the soak's 32 points with every
// session and result, holds about 34 KiB.
const chaosHeapSlack = 24 << 10

// settledHeap returns the live heap after two collections: the first frees
// the garbage, the second empties the sync.Pool victim caches the first
// left behind. It mirrors the serve package's helper.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// chaosSpec is the soak's fault schedule; it matches internal/serve's
// chaosSpec so the two suites exercise one fault schedule.
func chaosSpec() faults.Spec {
	return faults.Spec{
		Seed:  1973,
		Delay: time.Millisecond,
		Rates: map[faults.Site]float64{
			faults.ServeHandlerDelay: 0.05,
			faults.ServeConnReset:    0.04,
			faults.CacheLeaderPanic:  0.40,
			faults.PoolWorkerStall:   0.05,
			faults.SimSlotSlow:       0.02,
		},
	}
}

// warmChaos grows the process-wide state the soak would otherwise grow
// for the first time: it parks and releases more goroutines than the soak
// runs at once (the runtime never frees a goroutine descriptor), then
// drives a short run of the soak's load through a throwaway daemon under
// the same faults (filling the encoding/json, net/http and reflect caches
// and the panic-recovery paths).
func warmChaos(t *testing.T) {
	t.Helper()
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

	srv := serve.New(serve.Config{Injector: faults.MustPlan(chaosSpec()), MaxConcurrent: 8})
	defer srv.Close()
	if _, err := Run(context.Background(), Config{
		Handler:  srv.Handler(),
		Clients:  8,
		Requests: 32,
		N:        32,
		Seed:     7,
		Keyspace: 6,
		Arrival:  churn.ArrivalSpec{Rate: 400, Mix: churn.MixPoisson},
		Retries:  6,
	}); err != nil {
		t.Fatalf("chaos warm-up: %v", err)
	}
}

// TestServeChaosSoak is the chaos gate: the load generator drives a
// fault-injected daemon — singleflight-leader panics, connection
// resets, worker stalls, handler delays, slow slots — through a
// mid-soak drain, and the daemon must stay standing: ≥99% of terminal
// requests well-formed, every HTTP-layer fault class actually
// exercised, every injected panic recovered (the process is still
// here), zero goroutine leaks, and no live heap left behind once the
// daemon is closed beyond chaosHeapSlack. Run with -race (the CI chaos
// lane does).
func TestServeChaosSoak(t *testing.T) {
	settleGoroutines(t)
	warmChaos(t)
	heapBefore := settledHeap()
	plan := faults.MustPlan(chaosSpec())
	srv := serve.New(serve.Config{Injector: plan, MaxConcurrent: 8})
	t.Cleanup(func() { srv.Close() })

	requests := 320
	if testing.Short() {
		requests = 80
	}

	// Flip the drain mid-soak: a SIGTERM arriving during chaos. The
	// loadgen opened its sessions up front, so the drain must not cost
	// it a single request.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		time.Sleep(300 * time.Millisecond)
		srv.Drain()
	}()

	report, err := Run(context.Background(), Config{
		Handler:  srv.Handler(),
		Clients:  8,
		Requests: requests,
		N:        32,
		Seed:     7,
		Keyspace: 6,
		Arrival:  churn.ArrivalSpec{Rate: 400, Mix: churn.MixPoisson},
		Retries:  6,
	})
	if err != nil {
		t.Fatalf("loadgen under chaos: %v", err)
	}
	<-drained
	t.Logf("chaos soak: %+v", report)

	// ≥99% of terminal requests well-formed: with retries absorbing the
	// injected faults, residual errors must stay under 1%.
	total := report.Requests + report.Errors
	if total < requests {
		t.Fatalf("soak completed %d terminal requests, want ≥ %d", total, requests)
	}
	if wellFormed := float64(report.Requests) / float64(total); wellFormed < 0.99 {
		t.Fatalf("well-formed fraction %.4f < 0.99 (%d errors of %d)", wellFormed, report.Errors, total)
	}
	// The soak must have actually hurt: faults fired at every HTTP-layer
	// site and the retry machinery did real work.
	fired := map[faults.Site]uint64{}
	for _, c := range plan.Counts() {
		fired[c.Site] = c.Fired
	}
	for _, site := range []faults.Site{faults.ServeHandlerDelay, faults.ServeConnReset, faults.CacheLeaderPanic} {
		if fired[site] == 0 {
			t.Errorf("site %s never fired — the soak exercised nothing there", site)
		}
	}
	if report.Aborted == 0 {
		t.Error("no connection resets observed by the client")
	}
	if report.Retries == 0 {
		t.Error("retry machinery never engaged")
	}

	// Every injected leader panic was recovered and counted — the
	// /healthz panics counter is the exported witness.
	hc := &http.Client{Transport: handlerTransport{srv.Handler()}}
	resp, err := hc.Get("http://chaos.invalid/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.Health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Panics == 0 {
		t.Error("panic-recovery middleware counted nothing despite injected leader panics")
	}
	if h.Status != "draining" {
		t.Errorf("/healthz status %q after chaos, want \"draining\"", h.Status)
	}

	// Heap settle: Close must let go of every deployment, session and
	// result the chaos left, recovered panics and reset connections
	// included. srv stays reachable until the reading is taken, so
	// whatever the closed daemon still points at counts against it.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	heapAfter := settledHeap()
	runtime.KeepAlive(srv)
	if retained := int64(heapAfter) - int64(heapBefore); retained > chaosHeapSlack {
		t.Fatalf("closed daemon retains %d KiB of live heap (before %d KiB, after %d KiB), slack %d KiB",
			retained>>10, heapBefore>>10, heapAfter>>10, chaosHeapSlack>>10)
	} else {
		t.Logf("heap settle: %d KiB retained after Close (slack %d KiB)", retained>>10, chaosHeapSlack>>10)
	}
}
