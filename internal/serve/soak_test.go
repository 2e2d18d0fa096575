package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// soakTransport drives the handler in-process: no sockets, so goroutine
// accounting sees only the daemon's own work.
type soakTransport struct{ h http.Handler }

func (t soakTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// soakHeapSlack is how many bytes of live heap the soak may leave behind
// once the daemon is closed. warmSoak moves the process-wide growth into
// the baseline, so what is left is the test's own bookkeeping and a few
// KiB of runtime noise. One leaked deployment of the soak's 28 points
// holds about 30 KiB even after its Network is closed.
const soakHeapSlack = 16 << 10

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

// soakBase is the URL prefix of the in-process daemon.
const soakBase = "http://soak.invalid"

// soakPoster returns a JSON POST helper over hc: it decodes a successful
// response into out (when non-nil) and turns a 4xx/5xx into an error.
func soakPoster(hc *http.Client) func(ctx context.Context, path string, in, out any) (int, error) {
	return func(ctx context.Context, path string, in, out any) (int, error) {
		body, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, soakBase+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if out != nil && resp.StatusCode < 400 {
			if err := json.Unmarshal(raw, out); err != nil {
				return resp.StatusCode, err
			}
		}
		if resp.StatusCode >= 400 {
			return resp.StatusCode, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, raw)
		}
		return resp.StatusCode, nil
	}
}

// warmSoak grows the process-wide state the soak would otherwise grow
// for the first time: it runs one open, run, join, repair and close on a
// throwaway daemon over pts (filling the encoding/json, net/http and
// reflect caches), then parks and releases more goroutines than the soak
// runs at once (the runtime never frees a goroutine descriptor).
func warmSoak(t *testing.T, pts [][2]float64) {
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

	srv := New(Config{})
	defer srv.Close()
	hc := &http.Client{Transport: soakTransport{srv.Handler()}}
	post := soakPoster(hc)
	ctx := context.Background()
	var open OpenResponse
	if _, err := post(ctx, "/v1/sessions", OpenRequest{Points: pts}, &open); err != nil {
		t.Fatal(err)
	}
	sbase := "/v1/sessions/" + open.SessionID
	var run, join RunResponse
	if _, err := post(ctx, sbase+"/run", RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 1}}, &run); err != nil {
		t.Fatal(err)
	}
	if _, err := post(ctx, sbase+"/join", JoinRequest{ResultID: run.ResultID, Points: [][2]float64{{60, 60}}}, &join); err != nil {
		t.Fatal(err)
	}
	if _, err := post(ctx, sbase+"/repair", RepairRequest{ResultID: join.ResultID, Failed: []int{0}}, nil); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, soakBase+sbase, nil)
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestServeSoak is the concurrency gate: ≥32 concurrent clients fire ≥500
// requests mixing Run, Join, and Repair, with deliberate mid-flight
// cancellations and a drain flipped mid-soak, all race-detector clean; the
// daemon leaks zero goroutines (before/after runtime.NumGoroutine settle)
// and, once closed, retains at most soakHeapSlack bytes of live heap while
// the Server value itself is still reachable. Run it with -race (the CI
// daemon lane does).
func TestServeSoak(t *testing.T) {
	clients, perClient := 32, 16 // 512 requests
	if testing.Short() {
		clients, perClient = 8, 8
	}

	// Record the baselines before the daemon exists. A throwaway daemon
	// first runs each operation once, so caches anywhere in the process
	// that fill on first use are already in the heap baseline.
	settleGoroutines(t)
	ctx := context.Background()
	pts := testPoints(42, 28)
	warmSoak(t, pts)
	heapBefore := settledHeap()

	srv := New(Config{})
	hc := &http.Client{Transport: soakTransport{srv.Handler()}}
	post := soakPoster(hc)
	var (
		wg        sync.WaitGroup
		requests  atomic.Int64
		canceled  atomic.Int64
		failures  atomic.Int64
		firstFail atomic.Value
	)
	fail := func(err error) {
		failures.Add(1)
		firstFail.CompareAndSwap(nil, err)
	}

	// Open every session before any client starts issuing requests: the
	// mid-soak drain must land on already-open sessions (a fast client can
	// otherwise flip the drain before slower goroutines have opened, and
	// their 503s would be correct refusals, not failures).
	sbases := make([]string, clients)
	for c := range sbases {
		var open OpenResponse
		if _, err := post(ctx, "/v1/sessions", OpenRequest{Points: pts}, &open); err != nil {
			t.Fatal(err)
		}
		sbases[c] = "/v1/sessions/" + open.SessionID
	}

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + idx)))
			sbase := sbases[idx]
			var lastResult string
			for i := 0; i < perClient; i++ {
				requests.Add(1)
				switch {
				case i%5 == 4:
					// Mid-flight cancellation: a microscopic deadline.
					cctx, cancel := context.WithTimeout(ctx, 50*time.Microsecond)
					_, err := post(cctx, sbase+"/run", RunRequest{
						Pipeline: "init-uniform",
						Options:  OptionsJSON{Seed: int64(rng.Intn(64) + 1)},
					}, nil)
					cancel()
					if err != nil {
						canceled.Add(1)
					}
				case i%5 == 2 && lastResult != "":
					var resp RunResponse
					x := 60 + float64(idx)*4 + float64(i)
					if _, err := post(ctx, sbase+"/join", JoinRequest{
						ResultID: lastResult,
						Points:   [][2]float64{{x, 60}, {x + 1.5, 61}},
					}, &resp); err != nil {
						fail(err)
					} else {
						lastResult = resp.ResultID
					}
				case i%5 == 3 && lastResult != "":
					var resp RunResponse
					if _, err := post(ctx, sbase+"/repair", RepairRequest{
						ResultID: lastResult,
						Failed:   []int{rng.Intn(20)},
					}, &resp); err != nil {
						fail(err)
					} else {
						lastResult = resp.ResultID
					}
				default:
					var resp RunResponse
					if _, err := post(ctx, sbase+"/run", RunRequest{
						Pipeline: "init-uniform",
						Options:  OptionsJSON{Seed: int64(rng.Intn(8) + 1)},
					}, &resp); err != nil {
						fail(err)
					} else {
						lastResult = resp.ResultID
					}
				}
				// Halfway through, one client flips the drain: existing
				// sessions must ride it out untouched.
				if idx == 0 && i == perClient/2 {
					srv.Drain()
				}
			}
			req, _ := http.NewRequest(http.MethodDelete, soakBase+sbase, nil)
			if resp, err := hc.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()

	if n := failures.Load(); n > 0 {
		t.Fatalf("%d request failures, first: %v", n, firstFail.Load())
	}
	if got := requests.Load(); got < int64(clients*perClient) {
		t.Fatalf("issued %d requests, want ≥ %d", got, clients*perClient)
	}
	if !srv.Draining() {
		t.Fatal("drain flag lost mid-soak")
	}
	// New sessions must be refused post-drain.
	if code, err := post(ctx, "/v1/sessions", OpenRequest{Points: pts}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("open after drain: status %d (%v), want 503", code, err)
	}
	t.Logf("soak: %d requests, %d canceled, cache %+v", requests.Load(), canceled.Load(), srv.cacheStats())

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Heap settle: Close must let go of every deployment, session and
	// result. srv stays reachable until the reading is taken, so whatever
	// the closed daemon still points at counts against it.
	heapAfter := settledHeap()
	runtime.KeepAlive(srv)
	if retained := int64(heapAfter) - int64(heapBefore); retained > soakHeapSlack {
		t.Fatalf("closed daemon retains %d KiB of live heap (before %d KiB, after %d KiB), slack %d KiB",
			retained>>10, heapBefore>>10, heapAfter>>10, soakHeapSlack>>10)
	} else {
		t.Logf("heap settle: %d KiB retained after Close (slack %d KiB)", retained>>10, soakHeapSlack>>10)
	}
	// Goroutine settle: everything the daemon spawned (worker pools,
	// singleflight leaders, canceled runs) must be gone — enforced by
	// the settleGoroutines cleanup registered up top.
}
