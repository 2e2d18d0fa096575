package serve

// Per-session circuit breaker (DESIGN.md §13.5). A session whose
// operations keep exhausting retries (ErrRetryExhausted — the Las
// Vegas ladder gave up) or timing out is burning full compute budgets
// on answers it never gets; the breaker cuts it off after k
// CONSECUTIVE such failures. While open, requests on the session are
// rejected with 503 until a deterministic, seeded number of rejections
// has passed — a probe schedule counted in requests, not wall time, so
// there is no clock in the state machine and a replay of the same
// request sequence trips and recovers identically. The first request
// after the rejection budget drains is the half-open probe: its
// success closes the breaker, another qualifying failure reopens it
// with a doubled (capped) budget.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"

	"sinrconn"
)

type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breakerBaseBudget is the first episode's rejection budget; each
// reopening doubles it up to breakerMaxBudgetShift doublings. The
// seeded jitter adds [0, base) so distinct sessions (distinct seeds)
// de-synchronize their probes.
const (
	breakerBaseBudget     = 4
	breakerMaxBudgetShift = 5
)

// breaker is one session's circuit-breaker state machine. All methods
// are safe for concurrent use; decisions depend only on the sequence
// of allow/record calls and the seed, never on the clock.
type breaker struct {
	mu        sync.Mutex
	threshold int
	seed      int64

	state   breakerState
	consec  int    // consecutive qualifying failures while closed
	episode uint64 // times opened
	budget  int    // rejections left before half-opening
	probing bool   // half-open: a probe is in flight
}

func newBreaker(threshold int, seed int64) *breaker {
	return &breaker{threshold: threshold, seed: seed}
}

// breakerSeed derives a session's breaker seed from its ID, so probe
// schedules differ across sessions but replay per session.
func breakerSeed(sessionID string) int64 {
	h := fnv.New64a()
	h.Write([]byte(sessionID))
	return int64(h.Sum64())
}

// probeBudget is episode e's rejection budget: base doubled per
// reopening (capped) plus seeded jitter in [0, base).
func (b *breaker) probeBudget(episode uint64) int {
	shift := episode - 1
	if shift > breakerMaxBudgetShift {
		shift = breakerMaxBudgetShift
	}
	jitter := splitmix64(uint64(b.seed)^(episode*0x9e3779b97f4a7c15)) % breakerBaseBudget
	return breakerBaseBudget<<shift + int(jitter)
}

// allow reports whether a request on the session may proceed. When it
// may not, remaining is the rejection count left before the half-open
// probe (the Retry-After hint). probe reports that this request IS the
// half-open probe.
func (b *breaker) allow() (ok bool, probe bool, remaining int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false, 0
	case breakerOpen:
		b.budget--
		if b.budget > 0 {
			return false, false, b.budget
		}
		b.state = breakerHalfOpen
		b.probing = false
		return false, false, 0
	default: // breakerHalfOpen
		if b.probing {
			return false, false, 1
		}
		b.probing = true
		return true, true, 0
	}
}

// record feeds an operation outcome into the state machine.
// qualifying failures are counted; a success resets (closed) or closes
// (half-open probe succeeded); neutral outcomes (client cancels,
// validation errors) change nothing except releasing a probe slot.
func (b *breaker) record(outcome breakerOutcome) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		switch outcome {
		case breakerSuccess:
			b.consec = 0
		case breakerFailure:
			b.consec++
			if b.consec >= b.threshold {
				b.open()
				return true
			}
		}
	case breakerHalfOpen:
		if !b.probing {
			// A late outcome from a request admitted before the breaker
			// opened; it carries no probe information.
			return false
		}
		switch outcome {
		case breakerSuccess:
			b.state = breakerClosed
			b.consec = 0
			b.probing = false
		case breakerFailure:
			b.open()
			return true
		default:
			// The probe never finished (canceled): let another run.
			b.probing = false
		}
	}
	// breakerOpen: outcomes of requests admitted earlier carry no new
	// information — the breaker already decided.
	return false
}

// open transitions to the open state (caller holds b.mu).
func (b *breaker) open() {
	b.state = breakerOpen
	b.episode++
	b.budget = b.probeBudget(b.episode)
	b.probing = false
	b.consec = 0
}

// splitmix64 mirrors faults.splitmix64 for the probe jitter (kept
// local: serve must not reach into the injection framework's internals
// for its own determinism needs).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// breakerOutcome classifies an operation result for the breaker.
type breakerOutcome uint8

const (
	breakerNeutral breakerOutcome = iota
	breakerSuccess
	breakerFailure
)

// classifyBreaker maps an operation error to a breaker outcome.
// Qualifying failures are the "this session keeps eating full compute
// budgets for nothing" signals: retry exhaustion and deadline
// timeouts. Client cancels and validation errors are neutral — they
// say nothing about the session's health.
func classifyBreaker(err error) breakerOutcome {
	switch {
	case err == nil:
		return breakerSuccess
	case errors.Is(err, sinrconn.ErrRetryExhausted):
		return breakerFailure
	case errors.Is(err, context.DeadlineExceeded):
		return breakerFailure
	default:
		return breakerNeutral
	}
}

// breakerAdmit gates an operation on the session's breaker, writing
// the 503 rejection when open. True means proceed.
func (s *Server) breakerAdmit(w http.ResponseWriter, sess *session) bool {
	if sess.brk == nil {
		return true
	}
	ok, probe, remaining := sess.brk.allow()
	if probe {
		s.metrics.breakerProbes.Add(1)
	}
	if ok {
		return true
	}
	s.metrics.breakerRejected.Add(1)
	w.Header().Set("Retry-After", "1")
	w.Header().Set(ShedHeader, "breaker")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(ErrorJSON{Error: fmt.Sprintf(
		"session circuit breaker open (%d rejections until probe)", remaining)})
	return false
}

// breakerRecord feeds an operation's outcome into the session breaker
// and counts openings.
func (s *Server) breakerRecord(sess *session, err error) {
	if sess.brk == nil {
		return
	}
	if sess.brk.record(classifyBreaker(err)) {
		s.metrics.breakerOpened.Add(1)
	}
}
