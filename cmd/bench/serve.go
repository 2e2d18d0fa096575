package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sinrconn"
	"sinrconn/internal/serve"
)

// serveWorkload drives the serving daemon (internal/serve, the handler
// behind cmd/served) over a real 127.0.0.1 TCP listener in this process,
// from one closed-loop client on one keep-alive connection. Reads ask for
// the Section 6 construction on keys warmed at set-up, so every read is a
// result-cache hit; a share of operations are writes that open a session
// over a fresh small deployment and close it again.
type serveWorkload struct {
	name       string
	n          int     // nodes of the deployment the reads run on
	keys       int     // pipeline seeds warmed at set-up and read
	writeN     int     // nodes of each written deployment
	writeShare float64 // share of operations that are writes
}

func (w *serveWorkload) Name() string { return w.name }

// daemon is one booted server with its client.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	tr     *http.Transport
	client *http.Client
}

func boot() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(serve.Config{})
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		tr:     &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
	d.client = &http.Client{Transport: d.tr}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down, waits for Serve to return, and releases
// every deployment.
func (d *daemon) stop() error {
	d.tr.CloseIdleConnections()
	err := d.hs.Shutdown(context.Background())
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Close()
	return err
}

// do sends one request and reads the whole response. The duration runs
// from sending the request to reading the last byte of the body. A
// non-2xx status is an error.
func (d *daemon) do(method, path string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dt := time.Since(t)
	if err != nil {
		return nil, dt, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, dt, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, dt, nil
}

// openSession opens a session over pts and returns its id.
func (d *daemon) openSession(pts []sinrconn.Point) (string, time.Duration, error) {
	wire := make([][2]float64, len(pts))
	for i, p := range pts {
		wire[i] = [2]float64{p.X, p.Y}
	}
	body, err := json.Marshal(serve.OpenRequest{Points: wire})
	if err != nil {
		return "", 0, err
	}
	out, dt, err := d.do(http.MethodPost, "/v1/sessions", body)
	if err != nil {
		return "", dt, err
	}
	var resp serve.OpenResponse
	if err := json.Unmarshal(out, &resp); err != nil || resp.SessionID == "" || resp.Nodes != len(pts) {
		return "", dt, fmt.Errorf("malformed open response %q", out)
	}
	return resp.SessionID, dt, nil
}

// runReply is a /run response with its result kept as the bytes sent.
type runReply struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

func (d *daemon) read(path string, body []byte) (runReply, time.Duration, error) {
	out, dt, err := d.do(http.MethodPost, path, body)
	if err != nil {
		return runReply{}, dt, err
	}
	var r runReply
	if err := json.Unmarshal(out, &r); err != nil || len(r.Result) == 0 {
		return runReply{}, dt, fmt.Errorf("malformed run response %q", out)
	}
	return r, dt, nil
}

// scrape reads /metrics into a map from series (with labels) to value.
func (d *daemon) scrape() (map[string]float64, error) {
	out, _, err := d.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// serverMeanMs is the daemon's mean handler time for endpoint between two
// scrapes, in milliseconds.
func serverMeanMs(before, after map[string]float64, endpoint string) float64 {
	label := `{endpoint="` + endpoint + `"}`
	n := after["serve_requests_total"+label] - before["serve_requests_total"+label]
	s := after["serve_request_seconds_total"+label] - before["serve_request_seconds_total"+label]
	return ratio(1000*s, n)
}

// bootWarm is one set-up cycle: boot, open the read deployment, and warm
// every key. It returns the daemon, the session and each key's first
// answer, which must have been computed rather than cached.
func bootWarm(pts []sinrconn.Point, bodies [][]byte) (*daemon, string, []json.RawMessage, error) {
	d, err := boot()
	if err != nil {
		return nil, "", nil, err
	}
	sid, _, err := d.openSession(pts)
	if err != nil {
		d.stop()
		return nil, "", nil, err
	}
	first := make([]json.RawMessage, len(bodies))
	for k, body := range bodies {
		r, _, err := d.read(runPath(sid), body)
		if err == nil && r.Cached {
			err = errors.New("first answer for a key came from the cache")
		}
		if err != nil {
			d.stop()
			return nil, "", nil, fmt.Errorf("warm key %d: %w", k, err)
		}
		first[k] = r.Result
	}
	return d, sid, first, nil
}

func runPath(sid string) string { return "/v1/sessions/" + sid + "/run" }

// checkFirst compares each key's first answer byte for byte with the
// encoding of an in-process Run on the same points, and returns the
// decoded metrics.
func checkFirst(pts []sinrconn.Point, seeds []int64, first []json.RawMessage) ([]serve.MetricsJSON, error) {
	nw, err := sinrconn.Open(pts)
	if err != nil {
		return nil, err
	}
	defer nw.Close()
	var out []serve.MetricsJSON
	for k, seed := range seeds {
		res, err := nw.Run(context.Background(), sinrconn.PipelineInit, sinrconn.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("in-process run, key %d: %w", k, err)
		}
		want, err := json.Marshal(serve.EncodeResult(res, false))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(first[k], want) {
			return nil, fmt.Errorf("key %d: daemon answered %s, in-process run encodes %s", k, first[k], want)
		}
		var r serve.ResultJSON
		if err := json.Unmarshal(first[k], &r); err != nil {
			return nil, err
		}
		out = append(out, r.Metrics)
	}
	return out, nil
}

func (w *serveWorkload) run(rc runConfig, rep *report) error {
	pts := deployment(rc.seed, w.n)
	seeds := make([]int64, w.keys)
	bodies := make([][]byte, w.keys)
	for k := range seeds {
		seeds[k] = opSeed(rc.seed, k)
		b, err := json.Marshal(serve.RunRequest{
			Pipeline: sinrconn.PipelineInit.String(),
			Options:  serve.OptionsJSON{Seed: seeds[k]},
		})
		if err != nil {
			return err
		}
		bodies[k] = b
	}

	var (
		d     *daemon
		sid   string
		first []json.RawMessage
	)
	setup, err := setupLoop(func() (err error) {
		d, sid, first, err = bootWarm(pts, bodies)
		return err
	}, func() error { return d.stop() })
	if err != nil {
		return err
	}
	defer d.stop()
	rep.set("setup_s", setup)
	rep.set("live_heap_mib", liveHeapMiB())

	ms, err := checkFirst(pts, seeds, first)
	if err != nil {
		return err
	}
	var sched, cons, agg []float64
	for _, m := range ms {
		sched = append(sched, float64(m.ScheduleLength))
		cons = append(cons, float64(m.SlotsUsed))
		agg = append(agg, float64(m.AggregationLatency))
	}
	rep.set("schedule_slots", mean(sched))
	rep.set("construction_slots", mean(cons))
	rep.set("aggregation_latency_slots", mean(agg))
	if rc.trace {
		if err := sinrLayers(rep, grid(rc.seed, w.n), 0); err != nil {
			return err
		}
	}

	before, err := d.scrape()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(rc.seed))
	var all, reads, writes []float64
	path := runPath(sid)
	attempt := func(err error) {
		failed := 0
		if err != nil {
			failed = 1
		}
		rep.attempt(1, failed, err)
	}
	timedLoop(rc.budget, 1, func(i int) {
		if rng.Float64() < w.writeShare {
			openD, closeD, err := d.openClose(deployment(opSeed(-rc.seed, i), w.writeN))
			attempt(err)
			if err == nil {
				all = append(all, millis(openD), millis(closeD))
				writes = append(writes, millis(openD+closeD))
			}
			return
		}
		k := rng.Intn(w.keys)
		r, dt, err := d.read(path, bodies[k])
		if err == nil && (!r.Cached || !bytes.Equal(r.Result, first[k])) {
			err = fmt.Errorf("key %d: read after warm-up answered cached=%v %s, want the cached %s", k, r.Cached, r.Result, first[k])
		}
		attempt(err)
		if err == nil {
			all = append(all, millis(dt))
			reads = append(reads, millis(dt))
		}
	})
	after, err := d.scrape()
	if err != nil {
		return err
	}
	rep.set("op_ms", mean(all))
	setTail(rep, "serve.run", reads)
	setTail(rep, "serve.write", writes)
	runServer := serverMeanMs(before, after, "run")
	rep.set("serve.run_server_ms", runServer)
	rep.set("serve.open_server_ms", serverMeanMs(before, after, "open"))
	rep.set("serve.close_server_ms", serverMeanMs(before, after, "close"))
	rep.set("serve.run_transport_ms", mean(reads)-runServer)
	delta := func(series string) uint64 { return uint64(after[series] - before[series]) }
	rep.setCache(delta("serve_cache_hits_total"), delta("serve_cache_misses_total"),
		delta("serve_cache_evictions_total"), delta("serve_cache_coalesced_total"))
	return nil
}

// openClose opens a session over pts and closes it again, returning the
// two latencies.
func (d *daemon) openClose(pts []sinrconn.Point) (openD, closeD time.Duration, err error) {
	sid, openD, err := d.openSession(pts)
	if err != nil {
		return 0, 0, fmt.Errorf("write open: %w", err)
	}
	if _, closeD, err = d.do(http.MethodDelete, "/v1/sessions/"+sid, nil); err != nil {
		return 0, 0, fmt.Errorf("write close: %w", err)
	}
	return openD, closeD, nil
}

// setTail sets prefix's median, its highest supported percentile with
// that percentile's rank, and the sample count.
func setTail(rep *report, prefix string, xs []float64) {
	asc := sorted(xs)
	p, _ := highestPercentile(len(asc))
	rep.set(prefix+"_p50_ms", percentile(asc, 50))
	rep.set(prefix+"_tail_ms", percentile(asc, p))
	rep.set(prefix+"_tail_pct", p)
	rep.set(prefix+"_samples", float64(len(asc)))
}
