package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"sinrconn/internal/faults"
)

// chaosSpec is the chaos suite's fault schedule: every injection site
// lit up at once — handler stalls, connection resets, singleflight-
// leader panics, worker stalls, slow slots — from one seed, so a rerun
// replays the identical fault pattern. TestServeChaosSoak and
// chaosHeapSlack is how many bytes of live heap the chaos soak may leave
// behind once its daemon is closed. The warm-up moves process-wide growth
// into the baseline; what is left is the fault plan's counters, the
// report and a few KiB of runtime noise. A daemon left open, its one
// deployment of the soak's 32 points with every session and result, holds
// about 34 KiB.
const chaosHeapSlack = 24 << 10

// chaosLoad is the chaos soak's load: 8 clients over 8 sessions of one
// 32-point deployment, 6 keys, and up to 6 retries per request.
func chaosLoad(requests int, midway func()) loadConfig {
	return loadConfig{clients: 8, sessions: 8, requests: requests, n: 32, seed: 7, keyspace: 6, retries: 6, midway: midway}
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

	srv := New(Config{Injector: faults.MustPlan(chaosSpec()), MaxConcurrent: 8})
	defer srv.Close()
	runLoad(t, srv, chaosLoad(32, nil))
}

// TestServeChaosSoak is the chaos gate: closed-loop clients drive a
// fault-injected daemon (singleflight-leader panics, connection resets,
// worker stalls, handler delays, slow slots) through a mid-soak drain,
// and the daemon must stay standing: ≥99% of terminal requests
// well-formed, every HTTP-layer fault class actually exercised, every
// injected panic recovered (the process is still here), zero goroutine
// leaks, and no live heap left behind once the daemon is closed beyond
// chaosHeapSlack. Run with -race (the CI chaos lane does).
func TestServeChaosSoak(t *testing.T) {
	settleGoroutines(t)
	warmChaos(t)
	heapBefore := settledHeap()
	plan := faults.MustPlan(chaosSpec())
	srv := New(Config{Injector: plan, MaxConcurrent: 8})
	t.Cleanup(func() { srv.Close() })

	requests := 320
	if testing.Short() {
		requests = 80
	}

	// Flip the drain once half the requests have ended: a SIGTERM arriving
	// mid-chaos. The sessions were opened up front, so the drain must not
	// cost a single request.
	report := runLoad(t, srv, chaosLoad(requests, srv.Drain))
	t.Logf("chaos soak: %+v", report)

	// ≥99% of terminal requests well-formed: with retries absorbing the
	// injected faults, residual errors must stay under 1%.
	total := report.requests + report.errors
	if total < requests {
		t.Fatalf("soak completed %d terminal requests, want ≥ %d", total, requests)
	}
	if wellFormed := float64(report.requests) / float64(total); wellFormed < 0.99 {
		t.Fatalf("well-formed fraction %.4f < 0.99 (%d errors of %d)", wellFormed, report.errors, total)
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
	if report.aborted == 0 {
		t.Error("no connection resets observed by the client")
	}
	if report.retries == 0 {
		t.Error("retry machinery never engaged")
	}

	// Every injected leader panic was recovered and counted — the
	// /healthz panics counter is the exported witness.
	h := soakHealth(t, &http.Client{Transport: soakTransport{srv.Handler()}})
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

// TestServeChaosFaultFreeReplay both run under it.
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

// TestServeChaosFaultFreeReplay pins the injection framework's core
// invariant end to end: faults stall or kill requests but NEVER change
// computed results, so a chaotic daemon's (eventually successful)
// answer is bit-identical to a clean daemon's.
func TestServeChaosFaultFreeReplay(t *testing.T) {
	settleGoroutines(t)
	chaotic, chaoticTS := testDaemon(t, Config{Injector: faults.MustPlan(chaosSpec())})
	_, cleanTS := testDaemon(t, Config{})
	_ = chaotic

	pts := testPoints(51, 32)
	runReq := RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 4}, IncludeTree: true}

	// The chaotic fetch retries through injected resets and panics; over
	// a real socket an injected abort surfaces as a client-side EOF,
	// which tryPost reports as code 0.
	fetchChaotic := func() []byte {
		hc := http.DefaultClient
		var sessID string
		for attempt := 0; attempt < 50; attempt++ {
			if sessID == "" {
				var open OpenResponse
				if code := tryPost(t, hc, chaoticTS.URL+"/v1/sessions", OpenRequest{Points: pts}, &open); code != http.StatusOK {
					continue
				}
				sessID = open.SessionID
			}
			var run RunResponse
			if code := tryPost(t, hc, chaoticTS.URL+"/v1/sessions/"+sessID+"/run", runReq, &run); code == http.StatusOK {
				w, _ := json.Marshal(run.Result)
				return w
			}
		}
		t.Fatal("chaotic daemon never produced a successful run in 50 attempts")
		return nil
	}
	chaoticBytes := fetchChaotic()

	clean := openSession(t, cleanTS.URL, OpenRequest{Points: pts})
	var runClean RunResponse
	if code, body := postJSON(t, cleanTS.URL+"/v1/sessions/"+clean.SessionID+"/run", runReq, &runClean); code != http.StatusOK {
		t.Fatalf("clean run: %d: %s", code, body)
	}
	cleanBytes, _ := json.Marshal(runClean.Result)
	if !bytes.Equal(chaoticBytes, cleanBytes) {
		t.Fatalf("fault-injected result diverges from fault-free replay:\n%s\n%s", chaoticBytes, cleanBytes)
	}
}

// tryPost posts JSON and decodes on 200; transport errors (injected
// resets) report code 0.
func tryPost(t *testing.T, hc *http.Client, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("malformed 200 body from %s: %v", url, err)
		}
	}
	return resp.StatusCode
}
