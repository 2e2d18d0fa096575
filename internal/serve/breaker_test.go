package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"

	"sinrconn"
	"sinrconn/internal/faults"
)

// drainToProbe calls allow() until the half-open probe is offered,
// returning how many rejections it took.
func drainToProbe(t *testing.T, b *breaker) int {
	t.Helper()
	rejections := 0
	for i := 0; i < 1000; i++ {
		ok, probe, _ := b.allow()
		if probe {
			if !ok {
				t.Fatal("probe offered but not admitted")
			}
			return rejections
		}
		if ok {
			t.Fatalf("open breaker admitted a non-probe request after %d rejections", rejections)
		}
		rejections++
	}
	t.Fatal("no probe within 1000 rejections")
	return 0
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	settleGoroutines(t)
	b := newBreaker(3, 1)
	for i := 0; i < 2; i++ {
		if ok, _, _ := b.allow(); !ok {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		if b.record(breakerFailure) {
			t.Fatalf("breaker opened after %d failures, threshold 3", i+1)
		}
	}
	b.allow()
	if !b.record(breakerFailure) {
		t.Fatal("breaker did not open at the threshold")
	}
	if ok, _, _ := b.allow(); ok {
		t.Fatal("open breaker admitted a request")
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	settleGoroutines(t)
	b := newBreaker(3, 1)
	for _, o := range []breakerOutcome{breakerFailure, breakerFailure, breakerSuccess, breakerFailure, breakerFailure} {
		if b.record(o) {
			t.Fatal("breaker opened despite an interleaved success")
		}
	}
	if !b.record(breakerFailure) {
		t.Fatal("third consecutive failure after the reset did not open")
	}
}

func TestBreakerNeutralPreservesStreak(t *testing.T) {
	settleGoroutines(t)
	b := newBreaker(3, 1)
	// Neutral outcomes (cancels, validation errors) neither extend nor
	// reset the failure streak.
	b.record(breakerFailure)
	b.record(breakerFailure)
	b.record(breakerNeutral)
	if !b.record(breakerFailure) {
		t.Fatal("neutral outcome reset the consecutive-failure streak")
	}
}

func TestBreakerProbeClosesAndReopens(t *testing.T) {
	settleGoroutines(t)
	b := newBreaker(2, 42)
	open := func() {
		t.Helper()
		b.record(breakerFailure)
		if !b.record(breakerFailure) {
			t.Fatal("breaker did not open")
		}
	}
	open()
	ep1 := drainToProbe(t, b)
	if ep1 < breakerBaseBudget || ep1 >= 2*breakerBaseBudget {
		t.Fatalf("episode-1 rejections = %d, want in [%d, %d)", ep1, breakerBaseBudget, 2*breakerBaseBudget)
	}
	// While the probe is in flight, everything else stays rejected.
	if ok, probe, _ := b.allow(); ok || probe {
		t.Fatal("second request admitted while a probe is in flight")
	}
	// Probe failure reopens with a doubled (plus jitter) budget.
	if !b.record(breakerFailure) {
		t.Fatal("failed probe did not reopen the breaker")
	}
	ep2 := drainToProbe(t, b)
	if ep2 < 2*breakerBaseBudget || ep2 >= 3*breakerBaseBudget {
		t.Fatalf("episode-2 rejections = %d, want in [%d, %d)", ep2, 2*breakerBaseBudget, 3*breakerBaseBudget)
	}
	if ep2 <= ep1 {
		t.Fatalf("episode-2 budget %d not larger than episode-1 %d", ep2, ep1)
	}
	// A canceled probe releases the slot for the next request.
	b.record(breakerNeutral)
	if ok, probe, _ := b.allow(); !ok || !probe {
		t.Fatal("canceled probe did not release the half-open slot")
	}
	// Probe success closes; normal traffic resumes.
	if b.record(breakerSuccess) {
		t.Fatal("successful probe reported an opening")
	}
	if ok, probe, _ := b.allow(); !ok || probe {
		t.Fatal("closed breaker after successful probe did not admit plainly")
	}
}

// TestBreakerScriptedPlanReplay drives two identical breakers from the
// same scripted fault plan (churn.repair.fail at rate ½ deciding each
// operation's outcome) and requires bit-identical decision traces: the
// whole state machine — openings, rejection budgets, probes — is a pure
// function of (seed, outcome sequence), with no clock anywhere.
func TestBreakerScriptedPlanReplay(t *testing.T) {
	settleGoroutines(t)
	script := func() string {
		plan := faults.MustPlan(faults.Spec{Seed: 7, Rates: map[faults.Site]float64{
			faults.ChurnRepairFail: 0.5,
		}})
		b := newBreaker(2, 99)
		trace := ""
		for i := 0; i < 400; i++ {
			ok, probe, remaining := b.allow()
			trace += fmt.Sprintf("%v/%v/%d;", ok, probe, remaining)
			if !ok {
				continue
			}
			outcome := breakerSuccess
			if _, fired := plan.Fire(faults.ChurnRepairFail); fired {
				outcome = breakerFailure
			}
			trace += fmt.Sprintf("o%v;", b.record(outcome))
		}
		return trace
	}
	a, c := script(), script()
	if a != c {
		t.Fatal("identical seed + scripted plan produced diverging breaker traces")
	}
	if !containsOpen(a) {
		t.Fatal("rate-½ failure script never opened a threshold-2 breaker (script too tame to test anything)")
	}
}

func containsOpen(trace string) bool {
	for i := 0; i+4 < len(trace); i++ {
		if trace[i:i+5] == "otrue" {
			return true
		}
	}
	return false
}

func TestClassifyBreaker(t *testing.T) {
	settleGoroutines(t)
	cases := []struct {
		err  error
		want breakerOutcome
	}{
		{nil, breakerSuccess},
		{sinrconn.ErrRetryExhausted, breakerFailure},
		{fmt.Errorf("wrapped: %w", sinrconn.ErrRetryExhausted), breakerFailure},
		{context.DeadlineExceeded, breakerFailure},
		{context.Canceled, breakerNeutral},
		{errors.New("validation: no points"), breakerNeutral},
	}
	for _, tc := range cases {
		if got := classifyBreaker(tc.err); got != tc.want {
			t.Errorf("classifyBreaker(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestServeBreakerEndToEnd trips a session's breaker over HTTP: a
// deployment too large for its deadline keeps timing out, the breaker
// opens after the configured threshold, rejections carry the breaker
// shed marker, and a healthy session on the same server is untouched.
func TestServeBreakerEndToEnd(t *testing.T) {
	settleGoroutines(t)
	_, ts := testDaemon(t, Config{BreakerThreshold: 2})
	sick := openSession(t, ts.URL, OpenRequest{Points: testPoints(21, 1024)})
	well := openSession(t, ts.URL, OpenRequest{Points: testPoints(22, 16)})

	sickURL := ts.URL + "/v1/sessions/" + sick.SessionID + "/run"
	for i := 0; i < 2; i++ {
		code, _ := postJSON(t, sickURL, RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: int64(i + 1)}, TimeoutMs: 1}, nil)
		if code != http.StatusGatewayTimeout {
			t.Fatalf("timed-out run %d: status %d, want 504", i, code)
		}
	}
	// The breaker is open now: the next request is rejected without
	// computing, tagged as a breaker shed.
	resp, err := http.Post(sickURL, "application/json",
		bytes.NewReader([]byte(`{"pipeline":"init-uniform"}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run on tripped session: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(ShedHeader); got != "breaker" {
		t.Fatalf("shed header %q, want \"breaker\"", got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker rejection missing Retry-After")
	}

	// The healthy session is unaffected: breakers are per-session.
	var run RunResponse
	code, body := postJSON(t, ts.URL+"/v1/sessions/"+well.SessionID+"/run",
		RunRequest{Pipeline: "init-uniform", Options: OptionsJSON{Seed: 1}}, &run)
	if code != http.StatusOK {
		t.Fatalf("healthy session run: status %d: %s", code, body)
	}

	var h Health
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(hr.Body).Decode(&h)
	hr.Body.Close()
	if h.Breaker == nil || h.Breaker.Opened != 1 || h.Breaker.Rejected == 0 {
		t.Fatalf("health breaker block = %+v, want opened=1 and rejections", h.Breaker)
	}
}
