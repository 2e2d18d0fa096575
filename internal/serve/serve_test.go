package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sinrconn/internal/workload"
)

// testPoints is the shared deterministic geometry for daemon tests.
func testPoints(seed int64, n int) [][2]float64 {
	g := workload.UniformSeeded(seed, n)
	pts := make([][2]float64, len(g))
	for i, p := range g {
		pts[i] = [2]float64{p.X, p.Y}
	}
	return pts
}

// testDaemon stands up a Server over a real listener.
func testDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postJSON round-trips one JSON request.
func postJSON(t *testing.T, url string, in, out any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode < 400 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, buf.String())
		}
	}
	return resp.StatusCode, buf.Bytes()
}

func openSession(t *testing.T, base string, req OpenRequest) OpenResponse {
	t.Helper()
	var resp OpenResponse
	code, body := postJSON(t, base+"/v1/sessions", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("open: status %d: %s", code, body)
	}
	return resp
}

// TestServeOpenRejectsBadGeometry: a deployment whose squared extent
// overflows (JSON cannot carry NaN or ±Inf, but it can carry 1e200) is a
// client error, not a retryable 503 from a construction that cannot
// converge; so is one below the minimum distance.
func TestServeOpenRejectsBadGeometry(t *testing.T) {
	_, ts := testDaemon(t, Config{})
	for name, pts := range map[string][][2]float64{
		"1e200 extent": {{0, 0}, {1e200, 0}, {0, 1e200}},
		"too close":    {{0, 0}, {0.5, 0}},
	} {
		code, body := postJSON(t, ts.URL+"/v1/sessions", OpenRequest{Points: pts}, nil)
		if code != http.StatusBadRequest {
			t.Errorf("%s: open status %d (%s), want 400", name, code, body)
		}
	}
}

// TestServeRejectsInvalidOptions: option values outside their domain are
// client errors (400), whether the wire decoder, the wire lowering, or the
// session's own option validation catches them — never a 500.
func TestServeRejectsInvalidOptions(t *testing.T) {
	_, ts := testDaemon(t, Config{})
	sess := openSession(t, ts.URL, OpenRequest{Points: testPoints(1, 12)})
	runURL := ts.URL + "/v1/sessions/" + sess.SessionID + "/run"
	pts, _ := json.Marshal(testPoints(2, 12))
	for _, tc := range []struct {
		name, url, body string
	}{
		{"open drop_prob 2", "/v1/sessions", `{"points":` + string(pts) + `,"options":{"drop_prob":2}}`},
		{"open alpha 1", "/v1/sessions", `{"points":` + string(pts) + `,"options":{"alpha":1}}`},
		{"open cache_size -1", "/v1/sessions", `{"points":` + string(pts) + `,"cache_size":-1}`},
		{"open far_mode flat", "/v1/sessions", `{"points":` + string(pts) + `,"options":{"max_rel_err":0.5,"far_mode":"flat"}}`},
		{"open far_mode quadtree", "/v1/sessions", `{"points":` + string(pts) + `,"options":{"max_rel_err":0.5,"far_mode":"quadtree"}}`},
		{"open cache_ttl_ms overflow", "/v1/sessions", `{"points":` + string(pts) + `,"cache_ttl_ms":9223372036855}`},
		{"open workers past the host", "/v1/sessions", `{"points":` + string(pts) + `,"options":{"workers":100000}}`},
		{"run drop_prob 2", runURL, `{"pipeline":"init-uniform","options":{"drop_prob":2}}`},
		{"run far_mode flat", runURL, `{"pipeline":"init-uniform","options":{"far_mode":"flat"}}`},
		{"run far_mode quadtree", runURL, `{"pipeline":"init-uniform","options":{"far_mode":"quadtree"}}`},
		{"run timeout_ms overflow", runURL, `{"pipeline":"init-uniform","timeout_ms":18446744073710}`},
	} {
		url := tc.url
		if strings.HasPrefix(url, "/") {
			url = ts.URL + url
		}
		code, body := postJSON(t, url, json.RawMessage(tc.body), nil)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, code, body)
		}
		if strings.Contains(tc.name, "far_mode") && !strings.Contains(string(body), "modes were removed") {
			t.Errorf("%s: body %s does not name the removal", tc.name, body)
		}
	}
}

func TestServeOpenRunClose(t *testing.T) {
	settleGoroutines(t)
	_, ts := testDaemon(t, Config{})
	sess := openSession(t, ts.URL, OpenRequest{Points: testPoints(1, 24)})
	if sess.Nodes != 24 {
		t.Fatalf("nodes = %d, want 24", sess.Nodes)
	}

	runURL := ts.URL + "/v1/sessions/" + sess.SessionID + "/run"
	var run RunResponse
	code, body := postJSON(t, runURL, RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 1}, IncludeTree: true}, &run)
	if code != http.StatusOK {
		t.Fatalf("run: status %d: %s", code, body)
	}
	if run.Cached {
		t.Fatal("first run reported cached")
	}
	if run.Result.Tree == nil || run.Result.Tree.NumNodes != 24 {
		t.Fatalf("run tree = %+v", run.Result.Tree)
	}
	if run.Result.Metrics.SlotsUsed <= 0 {
		t.Fatalf("metrics = %+v", run.Result.Metrics)
	}

	// Identical query: memo hit, same payload.
	var again RunResponse
	postJSON(t, runURL, RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 1}, IncludeTree: true}, &again)
	if !again.Cached {
		t.Fatal("second identical run not cached")
	}
	w1, _ := json.Marshal(run.Result)
	w2, _ := json.Marshal(again.Result)
	if !bytes.Equal(w1, w2) {
		t.Fatalf("cached result differs:\n%s\n%s", w1, w2)
	}

	// Metrics-only response carries no tree.
	var slim RunResponse
	postJSON(t, runURL, RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 1}}, &slim)
	if slim.Result.Tree != nil {
		t.Fatal("metrics-only response carried a tree")
	}

	// Unknown pipeline and unknown session.
	code, _ = postJSON(t, runURL, RunRequest{Pipeline: "nope"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad pipeline: status %d, want 400", code)
	}
	code, _ = postJSON(t, ts.URL+"/v1/sessions/s999/run", RunRequest{Pipeline: "init-uniform"}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", code)
	}

	// Close, then the session is gone.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sess.SessionID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	code, _ = postJSON(t, runURL, RunRequest{Pipeline: "init-uniform"}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("run after close: status %d, want 404", code)
	}
}

func TestServeDeploymentDedup(t *testing.T) {
	settleGoroutines(t)
	srv, ts := testDaemon(t, Config{})
	pts := testPoints(2, 20)
	a := openSession(t, ts.URL, OpenRequest{Points: pts})
	b := openSession(t, ts.URL, OpenRequest{Points: pts})
	if a.SharedDeployment {
		t.Fatal("first open reported shared")
	}
	if !b.SharedDeployment {
		t.Fatal("identical second open did not dedup")
	}
	// Different options → different deployment.
	c := openSession(t, ts.URL, OpenRequest{Points: pts, Options: OptionsJSON{Seed: 9}})
	if c.SharedDeployment {
		t.Fatal("open with different options deduped")
	}

	var h Health
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Sessions != 3 || h.Deployments != 2 {
		t.Fatalf("health = %+v, want 3 sessions over 2 deployments", h)
	}

	// A run through either deduped session hits the same cache.
	runReq := RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 1}}
	var r1, r2 RunResponse
	postJSON(t, ts.URL+"/v1/sessions/"+a.SessionID+"/run", runReq, &r1)
	postJSON(t, ts.URL+"/v1/sessions/"+b.SessionID+"/run", runReq, &r2)
	if r1.Cached || !r2.Cached {
		t.Fatalf("cross-session dedup: cached = %v, %v; want false, true", r1.Cached, r2.Cached)
	}

	// Dropping one deduped session keeps the deployment alive for the other.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+a.SessionID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	var r3 RunResponse
	code, _ := postJSON(t, ts.URL+"/v1/sessions/"+b.SessionID+"/run", runReq, &r3)
	if code != http.StatusOK || !r3.Cached {
		t.Fatalf("survivor session after sibling close: status %d cached %v", code, r3.Cached)
	}
	_ = srv
}

func TestServeStreaming(t *testing.T) {
	settleGoroutines(t)
	_, ts := testDaemon(t, Config{})
	sess := openSession(t, ts.URL, OpenRequest{Points: testPoints(3, 24)})
	runURL := ts.URL + "/v1/sessions/" + sess.SessionID + "/run"

	stream := func() (slots int, terminal resultLine) {
		t.Helper()
		body, _ := json.Marshal(RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 4}, Stream: true})
		resp, err := http.Post(runURL, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("stream content type %q", ct)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var last string
		for sc.Scan() {
			line := sc.Text()
			var probe struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal([]byte(line), &probe); err != nil {
				t.Fatalf("bad stream line %q: %v", line, err)
			}
			switch probe.Type {
			case "slot":
				slots++
			case "result":
				last = line
			case "error":
				t.Fatalf("stream error line: %s", line)
			}
		}
		if last == "" {
			t.Fatal("stream ended without a terminal result line")
		}
		if err := json.Unmarshal([]byte(last), &terminal); err != nil {
			t.Fatal(err)
		}
		return slots, terminal
	}

	slots, terminal := stream()
	if slots == 0 {
		t.Fatal("cold streamed run emitted no slot events")
	}
	if terminal.Cached {
		t.Fatal("cold streamed run reported cached")
	}
	if terminal.Result.Metrics.SlotsUsed <= 0 {
		t.Fatalf("terminal metrics = %+v", terminal.Result.Metrics)
	}

	// A memo hit streams zero slot events: nothing executed.
	slots, terminal = stream()
	if slots != 0 {
		t.Fatalf("cached streamed run emitted %d slot events, want 0", slots)
	}
	if !terminal.Cached {
		t.Fatal("repeat streamed run not cached")
	}
}

func TestServeJoinRepairChurn(t *testing.T) {
	settleGoroutines(t)
	_, ts := testDaemon(t, Config{})
	sess := openSession(t, ts.URL, OpenRequest{Points: testPoints(5, 24)})
	base := ts.URL + "/v1/sessions/" + sess.SessionID

	var run RunResponse
	code, body := postJSON(t, base+"/run", RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 2}, IncludeTree: true}, &run)
	if code != http.StatusOK {
		t.Fatalf("run: %d: %s", code, body)
	}

	// Join two fresh nodes well clear of the existing square.
	var joined RunResponse
	code, body = postJSON(t, base+"/join", JoinRequest{
		ResultID:    run.ResultID,
		Points:      [][2]float64{{40, 40}, {41.5, 40}},
		IncludeTree: true,
	}, &joined)
	if code != http.StatusOK {
		t.Fatalf("join: %d: %s", code, body)
	}
	if joined.Result.Tree.NumNodes != 26 {
		t.Fatalf("joined tree has %d nodes, want 26", joined.Result.Tree.NumNodes)
	}

	// Repair a failed node out of the joined result.
	var repaired RunResponse
	code, body = postJSON(t, base+"/repair", RepairRequest{
		ResultID:    joined.ResultID,
		Failed:      []int{3},
		IncludeTree: true,
	}, &repaired)
	if code != http.StatusOK {
		t.Fatalf("repair: %d: %s", code, body)
	}
	if repaired.Result.Tree.NumNodes != 25 {
		t.Fatalf("repaired tree has %d nodes, want 25 (survivors of 26)", repaired.Result.Tree.NumNodes)
	}

	// Repair validation: failed and links are mutually exclusive.
	code, _ = postJSON(t, base+"/repair", RepairRequest{ResultID: run.ResultID}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("empty repair: %d, want 400", code)
	}

	// A short churn trace.
	var churned ChurnResponse
	code, body = postJSON(t, base+"/churn", ChurnRequest{
		Seed: 11, Events: 4, JoinRate: 1, FailRate: 1,
	}, &churned)
	if code != http.StatusOK {
		t.Fatalf("churn: %d: %s", code, body)
	}
	if churned.Stats.Events != 4 {
		t.Fatalf("churn stats = %+v, want 4 events", churned.Stats)
	}
	if churned.ResultID == "" {
		t.Fatal("churn returned no result handle")
	}
}

func TestServeRunMatrix(t *testing.T) {
	settleGoroutines(t)
	_, ts := testDaemon(t, Config{})
	sess := openSession(t, ts.URL, OpenRequest{Points: testPoints(6, 24)})

	var req MatrixRequest
	for _, p := range []string{"init-uniform", "reschedule-mean"} {
		req.Specs = append(req.Specs, struct {
			Pipeline string      `json:"pipeline"`
			Options  OptionsJSON `json:"options,omitzero"`
		}{Pipeline: p, Options: OptionsJSON{Seed: 3}})
	}
	var resp MatrixResponse
	code, body := postJSON(t, ts.URL+"/v1/sessions/"+sess.SessionID+"/runmatrix", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("runmatrix: %d: %s", code, body)
	}
	if len(resp.Results) != 2 || resp.Results[0] == nil || resp.Results[1] == nil {
		t.Fatalf("runmatrix results = %+v", resp.Results)
	}
	if resp.ResultIDs[0] == resp.ResultIDs[1] {
		t.Fatal("runmatrix reused a result id")
	}
}

func TestServeDrain(t *testing.T) {
	settleGoroutines(t)
	srv, ts := testDaemon(t, Config{})
	sess := openSession(t, ts.URL, OpenRequest{Points: testPoints(7, 20)})

	srv.Drain()
	code, _ := postJSON(t, ts.URL+"/v1/sessions", OpenRequest{Points: testPoints(7, 20)}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("open while draining: %d, want 503", code)
	}

	// Existing sessions keep working through the drain window.
	var run RunResponse
	code, body := postJSON(t, ts.URL+"/v1/sessions/"+sess.SessionID+"/run", RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 1}}, &run)
	if code != http.StatusOK {
		t.Fatalf("run while draining: %d: %s", code, body)
	}

	var h Health
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "draining" {
		t.Fatalf("health status %q, want draining", h.Status)
	}
}

func TestServeDeadline(t *testing.T) {
	settleGoroutines(t)
	_, ts := testDaemon(t, Config{})
	sess := openSession(t, ts.URL, OpenRequest{Points: testPoints(8, 256)})
	code, body := postJSON(t, ts.URL+"/v1/sessions/"+sess.SessionID+"/run",
		RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 1}, TimeoutMs: 1}, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("1ms run at n=256: status %d (%s), want 504", code, body)
	}
	// The canceled run committed nothing: the same query now computes
	// cleanly and reports cached=false.
	var run RunResponse
	code, body = postJSON(t, ts.URL+"/v1/sessions/"+sess.SessionID+"/run",
		RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 1}}, &run)
	if code != http.StatusOK {
		t.Fatalf("rerun after deadline: %d: %s", code, body)
	}
	if run.Cached {
		t.Fatal("rerun after canceled run was served from cache: the canceled run committed a result")
	}
}

func TestServeMetrics(t *testing.T) {
	settleGoroutines(t)
	_, ts := testDaemon(t, Config{})
	sess := openSession(t, ts.URL, OpenRequest{Points: testPoints(9, 20)})
	runReq := RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 1}}
	postJSON(t, ts.URL+"/v1/sessions/"+sess.SessionID+"/run", runReq, nil)
	postJSON(t, ts.URL+"/v1/sessions/"+sess.SessionID+"/run", runReq, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"serve_cache_hits_total 1",
		"serve_cache_misses_total 1",
		"serve_cache_entries 1",
		"serve_sessions 1",
		"serve_deployments 1",
		`serve_requests_total{endpoint="run"} 2`,
		`serve_requests_total{endpoint="open"} 1`,
		"serve_request_seconds_total",
		"serve_cache_compute_seconds_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServeSessionResultCap pins the per-session result namespace bound:
// old handles fall off, new ones stay addressable.
func TestServeSessionResultCap(t *testing.T) {
	settleGoroutines(t)
	_, ts := testDaemon(t, Config{MaxResultsPerSession: 2})
	sess := openSession(t, ts.URL, OpenRequest{Points: testPoints(10, 20)})
	base := ts.URL + "/v1/sessions/" + sess.SessionID
	ids := make([]string, 3)
	for i := range ids {
		var run RunResponse
		code, body := postJSON(t, base+"/run", RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: int64(i + 1)}}, &run)
		if code != http.StatusOK {
			t.Fatalf("run %d: %d: %s", i, code, body)
		}
		ids[i] = run.ResultID
	}
	code, _ := postJSON(t, base+"/join", JoinRequest{ResultID: ids[0], Points: [][2]float64{{60, 60}}}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("evicted result id: status %d, want 404", code)
	}
	code, body := postJSON(t, base+"/join", JoinRequest{ResultID: ids[2], Points: [][2]float64{{60, 60}}}, nil)
	if code != http.StatusOK {
		t.Fatalf("live result id: status %d: %s", code, body)
	}
}

// TestServeConcurrentIdenticalRuns pins coalescing end to end: many
// concurrent identical cold queries produce exactly one construction.
func TestServeConcurrentIdenticalRuns(t *testing.T) {
	settleGoroutines(t)
	srv, ts := testDaemon(t, Config{})
	sess := openSession(t, ts.URL, OpenRequest{Points: testPoints(11, 48)})
	runURL := ts.URL + "/v1/sessions/" + sess.SessionID + "/run"

	const clients = 16
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			body, _ := json.Marshal(RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 77}})
			resp, err := http.Post(runURL, "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var run RunResponse
			errs <- json.NewDecoder(resp.Body).Decode(&run)
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := srv.cacheStats()
	if st.Computes != 1 {
		t.Fatalf("computes = %d, want 1 (coalescing)", st.Computes)
	}
	if st.Hits+st.Coalesced != clients-1 {
		t.Fatalf("hits+coalesced = %d+%d, want %d", st.Hits, st.Coalesced, clients-1)
	}
}
