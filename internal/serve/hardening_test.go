package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sinrconn/internal/faults"
)

// TestRecoverPanicsMiddleware pins the panic-recovery contract: a
// panicking handler becomes a JSON 500 and a serve_panics_total tick —
// never a dead process — while http.ErrAbortHandler passes through
// untouched (it is the sanctioned connection-abort signal).
func TestRecoverPanicsMiddleware(t *testing.T) {
	settleGoroutines(t)
	s := New(Config{})
	defer s.Close()

	boom := s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	var e ErrorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "kaboom") {
		t.Fatalf("panic 500 body = %q (%v)", rec.Body.String(), err)
	}
	if got := s.metrics.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	// A panic after the response started cannot become a 500; the
	// middleware aborts the connection instead of leaving a silently
	// truncated 200 on the wire.
	mid := s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial"))
		panic("late")
	}))
	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Fatal("mid-stream panic did not abort the connection")
			}
		}()
		mid.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/x", nil))
	}()
	if got := s.metrics.panics.Load(); got != 2 {
		t.Fatalf("panics counter = %d, want 2", got)
	}

	// ErrAbortHandler itself is not treated as a crash.
	abort := s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Fatal("ErrAbortHandler was swallowed")
			}
		}()
		abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/x", nil))
	}()
	if got := s.metrics.panics.Load(); got != 2 {
		t.Fatalf("panics counter = %d after ErrAbortHandler, want 2 (aborts are not crashes)", got)
	}
}

// TestInjectFaultsMiddleware pins the HTTP-layer injection sites: at
// rate 1 every /v1/ request is delayed then reset, while /healthz and
// /metrics stay exempt.
func TestInjectFaultsMiddleware(t *testing.T) {
	settleGoroutines(t)
	plan := faults.MustPlan(faults.Spec{Seed: 3, Delay: time.Millisecond, Rates: map[faults.Site]float64{
		faults.ServeConnReset: 1,
	}})
	s := New(Config{Injector: plan})
	defer s.Close()
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	h := s.injectFaults(inner)

	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Fatal("conn-reset site at rate 1 did not abort a /v1/ request")
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/sessions", nil))
	}()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz under full injection: status %d, want 200 (exempt)", rec.Code)
	}
}

func TestLimiterQueueFullAndDeadlineShed(t *testing.T) {
	settleGoroutines(t)
	l := newLimiter(1, 1)
	never := make(chan struct{})

	release, err := l.acquire(never, 0)
	if err != nil {
		t.Fatalf("fast-path acquire failed: %v", err)
	}

	// Deadline shed: the projected wait (≥ one 25ms default service
	// time) exceeds a 1ms deadline, so the request is refused upfront.
	if _, err := l.acquire(never, time.Millisecond); err == nil {
		t.Fatal("deadline-doomed request was admitted")
	} else if se := err.(*shedError); se.reason != "deadline" || se.retryAfter <= 0 {
		t.Fatalf("shed = %+v, want reason deadline with positive retryAfter", se)
	}

	// Fill the queue with a patient waiter, then the next is shed full.
	waited := make(chan struct{})
	go func() {
		r, err := l.acquire(never, 0)
		if err == nil {
			r()
		}
		close(waited)
	}()
	for i := 0; l.queued.Load() == 0; i++ {
		if i > 500 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := l.acquire(never, 0); err == nil {
		t.Fatal("request admitted past a full queue")
	} else if se := err.(*shedError); se.reason != "queue_full" {
		t.Fatalf("shed reason %q, want queue_full", se.reason)
	}

	// A canceled wait abandons the queue.
	done := make(chan struct{})
	close(done)
	// The queue slot is still held by the patient waiter; a second
	// waiter would be shed, so release first and let the waiter drain.
	release()
	<-waited
	rel2, err := l.acquire(never, 0)
	if err != nil {
		t.Fatalf("acquire after drain: %v", err)
	}
	if _, err := l.acquire(done, 0); err == nil {
		t.Fatal("canceled wait was admitted")
	} else if se := err.(*shedError); se.reason != "wait_canceled" {
		t.Fatalf("shed reason %q, want wait_canceled", se.reason)
	}
	rel2()

	if l.admitted.Load() != 3 || l.shedDeadline.Load() != 1 || l.shedQueueFull.Load() != 1 || l.waitCanceled.Load() != 1 {
		t.Fatalf("limiter counters = admitted %d deadline %d full %d canceled %d",
			l.admitted.Load(), l.shedDeadline.Load(), l.shedQueueFull.Load(), l.waitCanceled.Load())
	}
}

// TestServeBodyCap posts a body one byte over maxBodyBytes: JSON
// whitespace, so only the cap can reject it. The open must answer 413 with
// a JSON error, and the daemon must keep serving.
func TestServeBodyCap(t *testing.T) {
	settleGoroutines(t)
	_, ts := testDaemon(t, Config{})
	body := bytes.Repeat([]byte(" "), maxBodyBytes+1)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorJSON
	derr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap body: status %d, want 413", resp.StatusCode)
	}
	if derr != nil || e.Error == "" {
		t.Fatalf("over-cap body: error body %+v (%v), want a JSON error", e, derr)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after over-cap body: status %d", hr.StatusCode)
	}
}

// TestServeAdmissionShedEndToEnd drives the shed path over the real
// route table: with capacity pinned and the queue full, an operation
// request gets 503 with the full Retry-After header set.
func TestServeAdmissionShedEndToEnd(t *testing.T) {
	settleGoroutines(t)
	srv, ts := testDaemon(t, Config{MaxConcurrent: 1})

	// Occupy the only slot and all queuePerSlot queue seats out-of-band.
	never := make(chan struct{})
	release, err := srv.limiter.acquire(never, 0)
	if err != nil {
		t.Fatal(err)
	}
	var waiters sync.WaitGroup
	for range queuePerSlot {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			if r, err := srv.limiter.acquire(never, 0); err == nil {
				r()
			}
		}()
	}
	for i := 0; srv.limiter.queued.Load() < queuePerSlot; i++ {
		if i > 500 {
			t.Fatal("waiters never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"points":[[0,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorJSON
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open against saturated server: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(ShedHeader) != "queue_full" {
		t.Fatalf("shed header %q, want queue_full", resp.Header.Get(ShedHeader))
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get(RetryAfterMsHeader) == "" {
		t.Fatalf("shed response missing Retry-After headers: %v", resp.Header)
	}
	if e.Error == "" {
		t.Fatal("shed response carried no JSON error body")
	}

	// A declared deadline shorter than the projected wait sheds even
	// with queue room.
	release()
	waiters.Wait()
	release, err = srv.limiter.acquire(never, 0) // re-pin capacity, queue now empty
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions", strings.NewReader(`{"points":[[0,0]]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TimeoutHeader, "1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(ShedHeader) != "deadline" {
		t.Fatalf("deadline shed: status %d header %q, want 503/deadline", resp.StatusCode, resp.Header.Get(ShedHeader))
	}

	// /healthz reports the admission block.
	var h Health
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(hr.Body).Decode(&h)
	hr.Body.Close()
	if h.Admission == nil || h.Admission.ShedQueueFull != 1 || h.Admission.ShedDeadline != 1 {
		t.Fatalf("health admission block = %+v, want one queue_full and one deadline shed", h.Admission)
	}
}
