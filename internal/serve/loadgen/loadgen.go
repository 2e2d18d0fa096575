// Package loadgen is the closed-loop load generator behind the serving
// benchmarks and the CI daemon smoke: N concurrent clients drive the
// daemon's HTTP surface from deterministic seeded arrival traces (Poisson
// and bursty mixes via internal/churn's trace machinery), recording
// throughput, exact p50/p99 latency, and the cache hit rate into
// BENCH_serve.json. Closed-loop means each client waits for its response
// before drawing the next arrival gap, so offered load adapts to server
// capacity instead of queueing unboundedly.
package loadgen

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
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sinrconn/internal/churn"
	"sinrconn/internal/serve"
)

// Config tunes one load run.
type Config struct {
	// BaseURL addresses a live daemon ("http://127.0.0.1:8080"). Ignored
	// when Handler is set.
	BaseURL string
	// Handler, if non-nil, is driven in-process (no sockets) — the
	// benchmark transport, immune to ephemeral-port limits at thousands of
	// concurrent sessions.
	Handler http.Handler

	// Clients is the number of concurrent closed-loop clients (default 8).
	Clients int
	// Sessions is how many sessions to open up-front, shared round-robin
	// by the clients (default = Clients). All sessions use the same
	// deployment, so the server deduplicates them onto one Network.
	Sessions int
	// Requests is the total run-request budget across clients (default 100).
	Requests int
	// N is the deployment size in nodes (default 64).
	N int
	// Seed derives the geometry and every client's private trace.
	Seed int64
	// Arrival shapes each client's think-time trace. Rate is required;
	// Seed is overridden per client.
	Arrival churn.ArrivalSpec
	// Keyspace is the number of distinct run keys (pipeline × seed) the
	// clients draw from (default 8). Small keyspaces are repeat-heavy:
	// after one cold pass everything hits the result cache.
	Keyspace int
	// Pipelines cycles run requests over these pipeline names (default
	// init-uniform only).
	Pipelines []string
	// IncludeTree asks for full trees instead of metrics-only responses.
	IncludeTree bool
	// StreamFraction of requests use the chunked ndjson streaming form.
	StreamFraction float64
	// CancelFraction of requests carry a ~1ms deadline to exercise
	// mid-flight cancellation; they count as Canceled, not Errors.
	CancelFraction float64
	// CacheSize / CacheTTLMs are passed through to the session opens
	// (0 = server default).
	CacheSize  int
	CacheTTLMs int64
	// Warmup primes every key once before the measurement window, so the
	// report captures the repeat-heavy steady state instead of the cold
	// startup transient. Warmup requests are excluded from every counter.
	Warmup bool
	// Retries is how many times a client re-issues a request that was
	// shed (503), crashed server-side (500), or lost its connection
	// mid-flight, with exponential backoff and seeded jitter, honoring
	// the server's Retry-After when it is longer. 0 disables retries
	// (the pre-chaos behavior: every failure counts as an error).
	Retries int
	// RetryBase is the first backoff step (default 5ms); step k waits
	// max(RetryBase<<k, server Retry-After) plus jitter in [0, RetryBase).
	RetryBase time.Duration
}

func (c *Config) defaults() error {
	if c.BaseURL == "" && c.Handler == nil {
		return errors.New("loadgen: need BaseURL or Handler")
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Sessions <= 0 {
		c.Sessions = c.Clients
	}
	if c.Requests <= 0 {
		c.Requests = 100
	}
	if c.N <= 0 {
		c.N = 64
	}
	if c.Keyspace <= 0 {
		c.Keyspace = 8
	}
	if len(c.Pipelines) == 0 {
		c.Pipelines = []string{"init-uniform"}
	}
	if c.Arrival.Rate <= 0 {
		c.Arrival.Rate = 200
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 5 * time.Millisecond
	}
	return nil
}

// Report is the outcome of one load run, shaped for BENCH_serve.json.
type Report struct {
	Mix        string  `json:"mix"`
	Clients    int     `json:"clients"`
	Sessions   int     `json:"sessions"`
	N          int     `json:"n"`
	Keyspace   int     `json:"keyspace"`
	CacheSize  int     `json:"cache_size,omitempty"`
	CacheTTLMs int64   `json:"cache_ttl_ms,omitempty"`
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	Canceled   int     `json:"canceled"`
	Streamed   int     `json:"streamed"`
	Seconds    float64 `json:"seconds"`
	Throughput float64 `json:"throughput_rps"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	// HitRate is the server-side result-cache hit rate over this run
	// (delta of /healthz counters).
	HitRate   float64 `json:"hit_rate"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Coalesced uint64  `json:"coalesced"`
	Evictions uint64  `json:"evictions"`
	// SharedSessions counts opens the server content-addressed onto an
	// existing deployment.
	SharedSessions int `json:"shared_sessions"`
	// Retries counts re-issued requests; Shed counts 503 admission
	// rejections observed (queue_full/deadline/wait_canceled);
	// BreakerOpen counts 503s from an open session circuit breaker;
	// Aborted counts connections the server reset mid-flight. A request
	// that ultimately succeeds after retries is NOT an error.
	Retries     int `json:"retries,omitempty"`
	Shed        int `json:"shed,omitempty"`
	BreakerOpen int `json:"breaker_open,omitempty"`
	Aborted     int `json:"aborted,omitempty"`
}

// errConnReset is what the in-process transport reports when the
// handler aborts the connection (http.ErrAbortHandler — the
// serve.conn.reset fault); a socket client would see ECONNRESET/EOF.
var errConnReset = errors.New("loadgen: connection reset by server")

// handlerTransport drives an http.Handler without sockets. It absorbs
// http.ErrAbortHandler the way net/http's server goroutine would, so a
// fault-injected connection reset surfaces as a transport error, not a
// client crash.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (resp *http.Response, err error) {
	rec := httptest.NewRecorder()
	func() {
		defer func() {
			if v := recover(); v != nil {
				//lint:ignore errdiscipline ErrAbortHandler is a panic value compared by identity, never wrapped (net/http's own idiom)
				if v == http.ErrAbortHandler {
					err = errConnReset
					return
				}
				panic(v)
			}
		}()
		t.h.ServeHTTP(rec, req)
	}()
	if err != nil {
		return nil, err
	}
	return rec.Result(), nil
}

// client wraps the transport with JSON helpers.
type client struct {
	hc   *http.Client
	base string
}

func newClient(cfg *Config) *client {
	if cfg.Handler != nil {
		return &client{hc: &http.Client{Transport: handlerTransport{cfg.Handler}}, base: "http://serve.invalid"}
	}
	tr := &http.Transport{MaxIdleConns: 2 * cfg.Clients, MaxIdleConnsPerHost: 2 * cfg.Clients}
	return &client{hc: &http.Client{Transport: tr}, base: cfg.BaseURL}
}

// post sends a JSON body and decodes a JSON response into out.
func (c *client) post(ctx context.Context, path string, in, out any) (int, error) {
	code, _, err := c.do(ctx, path, in, out)
	return code, err
}

// do is post plus the response headers — the retry loop reads the
// server's Retry-After hints off them. A transport-level failure (the
// server reset the connection mid-flight) reports code 0.
func (c *client) do(ctx context.Context, path string, in, out any) (int, http.Header, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e serve.ErrorJSON
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, resp.Header, fmt.Errorf("%s: %s (%s)", path, resp.Status, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, resp.Header, err
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header, nil
}

// postStream sends a streaming run request and consumes the ndjson body,
// returning the number of slot lines and the terminal line's error if any.
func (c *client) postStream(ctx context.Context, path string, in any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	slots := 0
	var terminalErr error
	for {
		var line struct {
			Type  string `json:"type"`
			Error string `json:"error"`
		}
		if err := dec.Decode(&line); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return slots, err
		}
		switch line.Type {
		case "slot":
			slots++
		case "error":
			terminalErr = errors.New(line.Error)
		}
	}
	return slots, terminalErr
}

func (c *client) health(ctx context.Context) (serve.Health, error) {
	var h serve.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

// points builds the shared deterministic deployment geometry: n points
// uniform on a 2.6√n square at unit min distance (the UniformSeeded
// discipline, inlined to keep loadgen's only intra-module dependencies on
// serve and churn).
func points(seed int64, n int) [][2]float64 {
	rng := rand.New(rand.NewSource(seed))
	span := 2.6 * sqrtf(float64(n))
	pts := make([][2]float64, 0, n)
	for len(pts) < n {
		cand := [2]float64{rng.Float64() * span, rng.Float64() * span}
		ok := true
		for _, p := range pts {
			dx, dy := p[0]-cand[0], p[1]-cand[1]
			if dx*dx+dy*dy < 1 {
				ok = false
				break
			}
		}
		if ok {
			pts = append(pts, cand)
		}
	}
	return pts
}

func sqrtf(x float64) float64 {
	// Newton iterations suffice here and avoid importing math for one call.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 32; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Run executes one closed-loop load run and reports.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	cl := newClient(&cfg)
	pts := points(cfg.Seed, cfg.N)

	var (
		retriesN atomic.Int64
		shedN    atomic.Int64
		breakerN atomic.Int64
		abortedN atomic.Int64
	)
	// doRetry issues one request under the seeded retry policy: sheds
	// (503), server-side crashes (500), and mid-flight connection resets
	// are re-issued up to cfg.Retries times, waiting the larger of the
	// exponential backoff step and the server's Retry-After hint, plus
	// jitter drawn from the caller's seeded rng — so a replayed trace
	// retries at identical offsets.
	doRetry := func(ctx context.Context, rng *rand.Rand, path string, in, out any) (int, error) {
		for attempt := 0; ; attempt++ {
			code, hdr, err := cl.do(ctx, path, in, out)
			if err == nil || ctx.Err() != nil {
				return code, err
			}
			switch code {
			case http.StatusServiceUnavailable:
				switch hdr.Get(serve.ShedHeader) {
				case "breaker":
					breakerN.Add(1)
				case "":
					// Retryable without being an admission shed: a
					// draining server or Las Vegas non-convergence.
				default:
					shedN.Add(1)
				}
			case http.StatusInternalServerError:
				// A recovered server-side panic: the process survived,
				// the request is safe to re-issue.
			case 0:
				abortedN.Add(1)
			default:
				return code, err
			}
			if attempt >= cfg.Retries {
				return code, err
			}
			retriesN.Add(1)
			wait := cfg.RetryBase << uint(attempt)
			if ms, perr := strconv.ParseInt(hdr.Get(serve.RetryAfterMsHeader), 10, 64); perr == nil {
				if ra := time.Duration(ms) * time.Millisecond; ra > wait {
					wait = ra
				}
			} else if secs, perr := strconv.ParseInt(hdr.Get("Retry-After"), 10, 64); perr == nil {
				if ra := time.Duration(secs) * time.Second; ra > wait {
					wait = ra
				}
			}
			wait += time.Duration(rng.Int63n(int64(cfg.RetryBase)))
			select {
			case <-ctx.Done():
				return code, err
			case <-time.After(wait):
			}
		}
	}
	// The open/warmup phase runs sequentially on this goroutine with its
	// own seeded jitter stream.
	setupRng := rand.New(rand.NewSource(cfg.Seed + 13))

	// Open the sessions up-front. They all share one deployment.
	sessions := make([]string, cfg.Sessions)
	shared := 0
	for i := range sessions {
		var resp serve.OpenResponse
		if _, err := doRetry(ctx, setupRng, "/v1/sessions", serve.OpenRequest{
			Points:     pts,
			CacheSize:  cfg.CacheSize,
			CacheTTLMs: serve.Millis(cfg.CacheTTLMs),
		}, &resp); err != nil {
			return nil, fmt.Errorf("loadgen: open session %d: %w", i, err)
		}
		sessions[i] = resp.SessionID
		if resp.SharedDeployment {
			shared++
		}
	}
	defer func() {
		for _, sid := range sessions {
			req, err := http.NewRequest(http.MethodDelete, cl.base+"/v1/sessions/"+sid, nil)
			if err != nil {
				continue
			}
			if resp, err := cl.hc.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	if cfg.Warmup {
		for key := 0; key < cfg.Keyspace; key++ {
			req := serve.RunRequest{
				Pipeline: cfg.Pipelines[key%len(cfg.Pipelines)],
				Options:  serve.OptionsJSON{Seed: int64(1 + key/len(cfg.Pipelines))},
			}
			if _, err := doRetry(ctx, setupRng, "/v1/sessions/"+sessions[key%len(sessions)]+"/run", req, nil); err != nil {
				return nil, fmt.Errorf("loadgen: warmup key %d: %w", key, err)
			}
		}
	}

	before, err := cl.health(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: healthz: %w", err)
	}

	var (
		issued   atomic.Int64
		errorsN  atomic.Int64
		canceled atomic.Int64
		streamed atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []time.Duration
	)
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 7919*int64(idx+1)))
			spec := cfg.Arrival
			spec.Seed = cfg.Seed + 104729*int64(idx+1)
			arr, err := churn.NewArrivals(spec)
			if err != nil {
				errorsN.Add(1)
				return
			}
			var local []time.Duration
			for {
				seq := issued.Add(1)
				if seq > int64(cfg.Requests) {
					break
				}
				// Closed loop: think-time gap first, then the request.
				gap := arr.Next()
				select {
				case <-ctx.Done():
					issued.Add(-1)
					mu.Lock()
					lats = append(lats, local...)
					mu.Unlock()
					return
				case <-time.After(gap):
				}
				key := rng.Intn(cfg.Keyspace)
				runReq := serve.RunRequest{
					Pipeline:    cfg.Pipelines[key%len(cfg.Pipelines)],
					Options:     serve.OptionsJSON{Seed: int64(1 + key/len(cfg.Pipelines))},
					IncludeTree: cfg.IncludeTree,
				}
				sid := sessions[(idx+int(seq))%len(sessions)]
				path := "/v1/sessions/" + sid + "/run"

				if cfg.CancelFraction > 0 && rng.Float64() < cfg.CancelFraction {
					// Deliberate mid-flight cancellation: tiny deadline.
					cctx, cancel := context.WithTimeout(ctx, time.Millisecond)
					_, err := cl.post(cctx, path, runReq, nil)
					cancel()
					if err != nil {
						canceled.Add(1)
					}
					continue
				}
				t0 := time.Now()
				if cfg.StreamFraction > 0 && rng.Float64() < cfg.StreamFraction {
					runReq.Stream = true
					streamed.Add(1)
					if _, err := cl.postStream(ctx, path, runReq); err != nil {
						// The run's own deadline expiring is the load test
						// ending, not a server failure.
						if ctx.Err() == nil {
							errorsN.Add(1)
						}
						continue
					}
				} else {
					var resp serve.RunResponse
					if _, err := doRetry(ctx, rng, path, runReq, &resp); err != nil {
						if ctx.Err() == nil {
							errorsN.Add(1)
						}
						continue
					}
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := cl.health(context.WithoutCancel(ctx))
	if err != nil {
		return nil, fmt.Errorf("loadgen: healthz: %w", err)
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p*float64(len(lats))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return float64(lats[i]) / 1e6
	}
	dh := after.Cache.Hits - before.Cache.Hits
	dm := after.Cache.Misses - before.Cache.Misses
	hitRate := 0.0
	if dh+dm > 0 {
		hitRate = float64(dh) / float64(dh+dm)
	}
	return &Report{
		Mix:            cfg.Arrival.Mix.String(),
		Clients:        cfg.Clients,
		Sessions:       cfg.Sessions,
		N:              cfg.N,
		Keyspace:       cfg.Keyspace,
		CacheSize:      cfg.CacheSize,
		CacheTTLMs:     cfg.CacheTTLMs,
		Requests:       len(lats),
		Errors:         int(errorsN.Load()),
		Canceled:       int(canceled.Load()),
		Streamed:       int(streamed.Load()),
		Seconds:        elapsed.Seconds(),
		Throughput:     float64(len(lats)) / elapsed.Seconds(),
		P50Ms:          pct(0.50),
		P90Ms:          pct(0.90),
		P99Ms:          pct(0.99),
		HitRate:        hitRate,
		Hits:           dh,
		Misses:         dm,
		Coalesced:      after.Cache.Coalesced - before.Cache.Coalesced,
		Evictions:      after.Cache.Evictions - before.Cache.Evictions,
		SharedSessions: shared,
		Retries:        int(retriesN.Load()),
		Shed:           int(shedN.Load()),
		BreakerOpen:    int(breakerN.Load()),
		Aborted:        int(abortedN.Load()),
	}, nil
}
