package serve

// Admission control (DESIGN.md §13.4): a bounded concurrency limiter
// with deadline-aware queueing. At most MaxConcurrent operation
// requests execute at once; excess requests queue up to
// queuePerSlot×MaxConcurrent deep.
// A request is shed with 503 + Retry-After — before consuming any
// compute — when the queue is full or when its projected wait (queue
// position × EWMA service time / capacity) already exceeds its
// deadline, because admitting it would burn a worker on an answer the
// client will never read.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Shed-related headers. TimeoutHeader is how a client declares its
// deadline to the admission layer (the body's timeout_ms is not yet
// parsed when admission runs); RetryAfterMsHeader mirrors Retry-After
// with millisecond precision; ShedHeader carries the shed reason
// ("queue_full", "deadline", or "breaker").
const (
	TimeoutHeader      = "X-Sinrconn-Timeout-Ms"
	RetryAfterMsHeader = "X-Sinrconn-Retry-After-Ms"
	ShedHeader         = "X-Sinrconn-Shed"
)

// limiter is the admission-control state. All counters are cumulative.
type limiter struct {
	capacity int
	queueCap int
	sem      chan struct{}

	running atomic.Int64
	queued  atomic.Int64

	admitted      atomic.Uint64
	shedQueueFull atomic.Uint64
	shedDeadline  atomic.Uint64
	waitCanceled  atomic.Uint64

	mu     sync.Mutex
	ewmaNs float64 // EWMA of observed service time, ns
}

// limiterEWMAAlpha weights the newest service-time sample; ~1/alpha
// recent requests dominate the estimate.
const limiterEWMAAlpha = 0.2

// limiterDefaultServiceTime seeds the wait projection before any
// request has completed.
const limiterDefaultServiceTime = 25 * time.Millisecond

func newLimiter(capacity, queueCap int) *limiter {
	l := &limiter{capacity: capacity, queueCap: queueCap, sem: make(chan struct{}, capacity)}
	for i := 0; i < capacity; i++ {
		l.sem <- struct{}{}
	}
	return l
}

// serviceTime returns the current mean service-time estimate.
func (l *limiter) serviceTime() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ewmaNs == 0 {
		return limiterDefaultServiceTime
	}
	return time.Duration(l.ewmaNs)
}

// observe folds one completed request's service time into the EWMA.
func (l *limiter) observe(d time.Duration) {
	l.mu.Lock()
	if l.ewmaNs == 0 {
		l.ewmaNs = float64(d)
	} else {
		l.ewmaNs = (1-limiterEWMAAlpha)*l.ewmaNs + limiterEWMAAlpha*float64(d)
	}
	l.mu.Unlock()
}

// projectedWait estimates how long a request entering the queue behind
// q waiters will wait for a slot: every `capacity` departures admit
// one queue layer, each layer taking one mean service time.
func (l *limiter) projectedWait(q int64) time.Duration {
	layers := math.Ceil(float64(q+1) / float64(l.capacity))
	return time.Duration(layers * float64(l.serviceTime()))
}

// shedError is the 503 the limiter returns; writeShed renders it with
// Retry-After.
type shedError struct {
	reason     string // "queue_full" | "deadline"
	retryAfter time.Duration
}

func (e *shedError) Error() string {
	return fmt.Sprintf("overloaded (%s), retry in %v", e.reason, e.retryAfter)
}

// acquire admits the request or sheds it. deadline ≤ 0 means the
// client declared none (only the queue bound applies). The returned
// release frees the slot and must be called exactly once after the
// request finishes. done is the request's cancellation channel; a
// cancel while queued abandons the wait.
func (l *limiter) acquire(done <-chan struct{}, deadline time.Duration) (release func(), err error) {
	start := time.Now()
	admit := func() func() {
		l.running.Add(1)
		l.admitted.Add(1)
		return func() {
			l.observe(time.Since(start))
			l.running.Add(-1)
			l.sem <- struct{}{}
		}
	}
	// Fast path: a slot is free.
	select {
	case <-l.sem:
		return admit(), nil
	default:
	}
	q := l.queued.Load()
	if l.queueCap > 0 && q >= int64(l.queueCap) {
		l.shedQueueFull.Add(1)
		return nil, &shedError{reason: "queue_full", retryAfter: l.projectedWait(q)}
	}
	if wait := l.projectedWait(q); deadline > 0 && wait > deadline {
		l.shedDeadline.Add(1)
		return nil, &shedError{reason: "deadline", retryAfter: wait}
	}
	l.queued.Add(1)
	defer l.queued.Add(-1)
	select {
	case <-l.sem:
		return admit(), nil
	case <-done:
		l.waitCanceled.Add(1)
		return nil, &shedError{reason: "wait_canceled", retryAfter: l.projectedWait(l.queued.Load())}
	}
}

// admit wraps an operation handler with admission control. With no
// limiter configured it is the identity. The declared deadline comes
// from the TimeoutHeader when present, clamped exactly like the body's
// timeout_ms; absent, the server defaults apply.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	if s.limiter == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		var ms int64
		fmt.Sscanf(r.Header.Get(TimeoutHeader), "%d", &ms)
		deadline := timeout(ms, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
		release, err := s.limiter.acquire(r.Context().Done(), deadline)
		if err != nil {
			s.writeShed(w, err.(*shedError))
			return
		}
		defer release()
		h(w, r)
	}
}

// writeShed renders a limiter rejection: 503, Retry-After in whole
// seconds (rounded up, minimum 1 — the header has no sub-second form),
// the millisecond-precision mirror, and the shed reason.
func (s *Server) writeShed(w http.ResponseWriter, e *shedError) {
	retry := e.retryAfter
	secs := int64(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	w.Header().Set(RetryAfterMsHeader, fmt.Sprintf("%d", retry.Milliseconds()))
	w.Header().Set(ShedHeader, e.reason)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(ErrorJSON{Error: e.Error()})
}
