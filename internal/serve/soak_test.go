package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// errConnReset is what soakTransport reports when the handler aborts the
// connection (http.ErrAbortHandler, the serve.conn.reset fault); a socket
// client would see ECONNRESET or EOF.
var errConnReset = errors.New("connection reset by server")

// soakTransport drives the handler in-process: no sockets, so goroutine
// accounting sees only the daemon's own work. It absorbs
// http.ErrAbortHandler the way net/http's server goroutine would, so an
// injected connection reset surfaces as a transport error, not a crash.
type soakTransport struct{ h http.Handler }

func (t soakTransport) RoundTrip(req *http.Request) (resp *http.Response, err error) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v != http.ErrAbortHandler {
			panic(v)
		}
		resp, err = nil, errConnReset
	}()
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

// soakPost posts in as JSON to the in-process daemon over hc. It decodes
// a successful response into out (when non-nil), turns a 4xx/5xx into an
// error, and returns the response headers, where runLoad's retry loop
// finds the server's Retry-After hints. A transport failure (an injected
// connection reset) reports code 0.
func soakPost(ctx context.Context, hc *http.Client, path string, in, out any) (int, http.Header, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, soakBase+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		return resp.StatusCode, resp.Header, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, resp.Header, err
		}
	}
	return resp.StatusCode, resp.Header, nil
}

// soakPoster returns soakPost over hc without the headers.
func soakPoster(hc *http.Client) func(ctx context.Context, path string, in, out any) (int, error) {
	return func(ctx context.Context, path string, in, out any) (int, error) {
		code, _, err := soakPost(ctx, hc, path, in, out)
		return code, err
	}
}

// loadConfig shapes one closed-loop run of runLoad.
type loadConfig struct {
	clients  int   // concurrent clients; each issues its next request as soon as its last one ends
	sessions int   // sessions opened up front on one deployment, shared round-robin
	requests int   // measured run requests across all clients
	n        int   // deployment size in nodes
	seed     int64 // derives the geometry and every client's key and jitter streams
	keyspace int   // distinct run keys: init-uniform seeds 1..keyspace
	warmup   bool  // run every key once before the measured requests
	// retries is how many times a request that was shed (503), crashed
	// server-side (500) or lost its connection is re-issued; 0 makes every
	// failure an error.
	retries int
	// midway, when set, runs once as half the measured requests have
	// reached a terminal response.
	midway func()
}

// loadReport is what one runLoad saw. A request that succeeds after
// retries is not an error.
type loadReport struct {
	requests, errors int     // measured requests that succeeded, and that failed for good
	shared           int     // session opens the server content-addressed onto an existing deployment
	hitRate          float64 // result-cache hit rate over the measured requests
	// retries counts re-issued requests, shed 503 admission rejections,
	// breakerOpen 503s from an open session breaker, and aborted
	// connections the server reset mid-flight.
	retries, shed, breakerOpen, aborted int
}

// loadRetryBase is the first backoff step: retry k waits the larger of
// loadRetryBase<<k and the server's Retry-After, plus seeded jitter in
// [0, loadRetryBase).
const loadRetryBase = 5 * time.Millisecond

// runLoad drives srv in-process with cfg.clients closed-loop clients and
// no think time: after opening the sessions (and warming every key),
// each client issues init-uniform runs back to back until cfg.requests
// have been issued in all.
func runLoad(t *testing.T, srv *Server, cfg loadConfig) loadReport {
	t.Helper()
	hc := &http.Client{Transport: soakTransport{srv.Handler()}}
	ctx := context.Background()
	var retries, shed, breakerOpen, aborted atomic.Int64
	// post issues one request under the retry policy. The jitter comes
	// from the caller's seeded rng, so a replayed run backs off by the
	// same draws.
	post := func(rng *rand.Rand, path string, in, out any) error {
		for attempt := 0; ; attempt++ {
			code, hdr, err := soakPost(ctx, hc, path, in, out)
			if err == nil {
				return nil
			}
			switch code {
			case http.StatusServiceUnavailable:
				switch hdr.Get(ShedHeader) {
				case "breaker":
					breakerOpen.Add(1)
				case "":
					// Retryable without being an admission shed: a
					// draining server or Las Vegas non-convergence.
				default:
					shed.Add(1)
				}
			case http.StatusInternalServerError:
				// A recovered server-side panic: the process survived,
				// the request is safe to re-issue.
			case 0:
				aborted.Add(1)
			default:
				return err
			}
			if attempt >= cfg.retries {
				return err
			}
			retries.Add(1)
			wait := loadRetryBase << attempt
			if ms, perr := strconv.ParseInt(hdr.Get(RetryAfterMsHeader), 10, 64); perr == nil {
				wait = max(wait, time.Duration(ms)*time.Millisecond)
			} else if secs, perr := strconv.ParseInt(hdr.Get("Retry-After"), 10, 64); perr == nil {
				wait = max(wait, time.Duration(secs)*time.Second)
			}
			time.Sleep(wait + time.Duration(rng.Int63n(int64(loadRetryBase))))
		}
	}
	runReq := func(key int) RunRequest {
		return RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: int64(1 + key)}}
	}

	var rep loadReport
	setup := rand.New(rand.NewSource(cfg.seed + 13))
	pts := testPoints(cfg.seed, cfg.n)
	sbases := make([]string, cfg.sessions)
	for i := range sbases {
		var open OpenResponse
		if err := post(setup, "/v1/sessions", OpenRequest{Points: pts}, &open); err != nil {
			t.Fatalf("open session %d: %v", i, err)
		}
		sbases[i] = "/v1/sessions/" + open.SessionID
		if open.SharedDeployment {
			rep.shared++
		}
	}
	if cfg.warmup {
		for key := 0; key < cfg.keyspace; key++ {
			if err := post(setup, sbases[key%len(sbases)]+"/run", runReq(key), nil); err != nil {
				t.Fatalf("warm-up key %d: %v", key, err)
			}
		}
	}

	before := srv.cacheStats()
	var (
		wg                      sync.WaitGroup
		issued, terminal, errsN atomic.Int64
		half                    = int64(cfg.requests / 2)
	)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + 7919*int64(idx+1)))
			for seq := issued.Add(1); seq <= int64(cfg.requests); seq = issued.Add(1) {
				key := rng.Intn(cfg.keyspace)
				var resp RunResponse
				if err := post(rng, sbases[(idx+int(seq))%len(sbases)]+"/run", runReq(key), &resp); err != nil {
					errsN.Add(1)
				}
				if terminal.Add(1) == half && cfg.midway != nil {
					cfg.midway()
				}
			}
		}(c)
	}
	wg.Wait()
	after := srv.cacheStats()

	rep.errors = int(errsN.Load())
	rep.requests = cfg.requests - rep.errors
	if dh, dm := after.Hits-before.Hits, after.Misses-before.Misses; dh+dm > 0 {
		rep.hitRate = float64(dh) / float64(dh+dm)
	}
	rep.retries = int(retries.Load())
	rep.shed = int(shed.Load())
	rep.breakerOpen = int(breakerOpen.Load())
	rep.aborted = int(aborted.Load())
	return rep
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
	soakHealth(t, hc)
}

// soakHealth fetches and decodes /healthz over hc.
func soakHealth(t *testing.T, hc *http.Client) Health {
	t.Helper()
	resp, err := hc.Get(soakBase + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
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
	// The drain stays visible where a load balancer looks for it.
	if h := soakHealth(t, hc); h.Status != "draining" {
		t.Fatalf("/healthz status %q mid-soak, want \"draining\"", h.Status)
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

// TestServeHeavyLoadAcceptance is the heavy-load acceptance gate: 64
// closed-loop clients with no think time share 1000 sessions over one
// n=1024 deployment, and every seed must see zero errors, the shared
// deployment and a result-cache hit rate ≥ 90% on the repeat-heavy
// steady state. It asserts nothing about latency: a tail ratio over
// microsecond cache hits measures GC and scheduler jitter, not the
// daemon, so the tail is a reported benchmark metric (cmd/bench,
// serve.run_tail_ms) instead. It stands up the full deployment once per
// seed, so -short skips it.
func TestServeHeavyLoadAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy load acceptance: run without -short")
	}
	settleGoroutines(t)
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			srv := New(Config{})
			defer srv.Close()
			report := runLoad(t, srv, loadConfig{
				clients:  64,
				sessions: 1000,
				requests: 4000,
				n:        1024,
				seed:     seed,
				keyspace: 8,
				warmup:   true,
			})
			t.Logf("report: %+v", report)

			if report.errors > 0 {
				t.Fatalf("%d request errors under load", report.errors)
			}
			if report.requests < 3900 {
				t.Fatalf("only %d requests completed, want ≈4000", report.requests)
			}
			if report.shared != 999 {
				t.Fatalf("shared sessions = %d, want 999 (1000 sessions, one deployment)", report.shared)
			}
			if report.hitRate < 0.90 {
				t.Fatalf("steady-state hit rate %.3f, want ≥ 0.90", report.hitRate)
			}
		})
	}
}
