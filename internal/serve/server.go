package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sinrconn"
	"sinrconn/internal/faults"
	"sinrconn/internal/serve/cache"
)

// Config tunes the daemon.
type Config struct {
	// CacheSize / CacheTTL bound each deployment's result cache (the
	// session memo). Zero size selects the sinrconn default (128); zero
	// TTL never expires.
	CacheSize int
	CacheTTL  time.Duration
	// DefaultTimeout bounds requests that carry no timeout_ms (0 = only
	// MaxTimeout applies). MaxTimeout caps every request (0 = uncapped).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes caps request bodies (default 32 MiB).
	MaxBodyBytes int64
	// MaxResultsPerSession caps the result handles a session retains
	// (oldest dropped first; default 256).
	MaxResultsPerSession int
	// Workers bounds each deployment's simulator worker pool (0 = NumCPU).
	Workers int
	// Injector, if non-nil, is the fault-injection hook (normally a
	// *faults.Plan, installed by tests and `served -chaos`): the HTTP
	// middleware consults it for handler delays and connection resets,
	// and every deployment Network inherits it for the engine/cache/churn
	// sites. Nil (production) means no injection anywhere.
	Injector faults.Injector
	// MaxConcurrent bounds operation requests (open/run/runmatrix/join/
	// repair/churn) executing at once. Excess requests queue; a request
	// whose projected queue wait exceeds its deadline — or that finds the
	// queue full — is shed with 503 + Retry-After. 0 disables admission
	// control (every request executes immediately, the pre-PR-10
	// behavior).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot (default
	// 4×MaxConcurrent; meaningful only with MaxConcurrent > 0).
	MaxQueue int
	// BreakerThreshold is the number k of CONSECUTIVE retryable failures
	// (ErrRetryExhausted, deadline timeouts) after which a session's
	// circuit breaker opens and requests on that session are rejected
	// with 503 until a seeded half-open probe succeeds. 0 selects the
	// default (8); negative disables the breaker.
	BreakerThreshold int
	// BreakerSeed keys the breakers' deterministic half-open probe
	// schedule (rejection counts, not wall time — replay-identical).
	BreakerSeed int64
	// Journal, if non-nil, records session opens and closes (fsync'd per
	// record) so a crashed daemon can rebuild its session table with
	// `served -recover` (Server.Restore). Results are NOT journaled:
	// deployments are content-addressed and runs deterministic, so a
	// recovered daemon recomputes (or re-caches) bit-identical answers.
	Journal *Journal
}

// DefaultBreakerThreshold is the consecutive-failure count that opens a
// session's circuit breaker when Config.BreakerThreshold is zero.
const DefaultBreakerThreshold = 8

func (c *Config) defaults() {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxResultsPerSession <= 0 {
		c.MaxResultsPerSession = 256
	}
	if c.MaxConcurrent > 0 && c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
}

// deployment is one content-addressed *sinrconn.Network shared by every
// session that opened identical (points, options).
type deployment struct {
	key    uint64
	pts    []sinrconn.Point
	optSig string
	nw     *sinrconn.Network
	refs   int
}

// session is a refcount on a deployment plus a namespace of result
// handles for follow-up operations and a per-session circuit breaker.
type session struct {
	id  string
	dep *deployment
	brk *breaker // nil when the breaker is disabled

	mu      sync.Mutex
	results map[string]*sinrconn.Result
	order   []string
	nextID  int
	seen    map[*sinrconn.Result]struct{}
}

// Server is the daemon state: sessions, deduplicated deployments, and
// request/cache metrics. Create with New, expose via Handler, stop with
// Drain (refuse new sessions) then Close (release every Network).
type Server struct {
	cfg      Config
	draining atomic.Bool
	limiter  *limiter // nil when admission control is off

	mu          sync.Mutex
	deployments map[uint64][]*deployment
	sessions    map[string]*session
	nextSession uint64
	recovered   int         // sessions rebuilt by Restore
	retired     cache.Stats // accumulated counters of closed deployments

	metrics metrics
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:         cfg,
		deployments: make(map[uint64][]*deployment),
		sessions:    make(map[string]*session),
	}
	if cfg.MaxConcurrent > 0 {
		s.limiter = newLimiter(cfg.MaxConcurrent, cfg.MaxQueue)
	}
	return s
}

// Drain marks the server draining: new sessions are refused with 503 and
// /healthz reports "draining" (the load balancer's signal to stop routing
// here). In-flight and follow-up requests on existing sessions continue;
// pair with http.Server.Shutdown to wait for them.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports drain state.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close releases every deployment's Network (waiting for their in-flight
// operations) and forgets all sessions. Call after the HTTP listener has
// stopped accepting requests.
func (s *Server) Close() error {
	s.mu.Lock()
	var all []*deployment
	for _, list := range s.deployments {
		all = append(all, list...)
	}
	s.deployments = make(map[uint64][]*deployment)
	s.sessions = make(map[string]*session)
	s.mu.Unlock()
	for _, d := range all {
		st := d.nw.CacheStats()
		d.nw.Close()
		s.mu.Lock()
		s.accumulateRetired(st)
		s.mu.Unlock()
	}
	return nil
}

// Handler returns the daemon's route table wrapped in the hardening
// middleware: operation endpoints pass admission control (s.admit);
// the whole mux sits behind fault injection (delay/conn-reset sites)
// and, outermost, panic recovery — so no handler crash, injected or
// real, ever kills the process. Close is deliberately NOT admitted:
// it only releases resources, and shedding it would leak sessions on
// the very overloads admission exists to survive. /healthz and
// /metrics bypass both admission and injection so operators can still
// see a chaotic server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.instrument("open", s.admit(s.handleOpen)))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("close", s.handleClose))
	mux.HandleFunc("POST /v1/sessions/{id}/run", s.instrument("run", s.admit(s.handleRun)))
	mux.HandleFunc("POST /v1/sessions/{id}/runmatrix", s.instrument("runmatrix", s.admit(s.handleRunMatrix)))
	mux.HandleFunc("POST /v1/sessions/{id}/join", s.instrument("join", s.admit(s.handleJoin)))
	mux.HandleFunc("POST /v1/sessions/{id}/repair", s.instrument("repair", s.admit(s.handleRepair)))
	mux.HandleFunc("POST /v1/sessions/{id}/churn", s.instrument("churn", s.admit(s.handleChurn)))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	var h http.Handler = mux
	h = s.injectFaults(h)
	h = s.recoverPanics(h)
	return h
}

// ---- session & deployment bookkeeping ----

// deployKey content-addresses (points, option signature).
func deployKey(pts []sinrconn.Point, optSig string) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, p := range pts {
		x := math.Float64bits(p.X)
		y := math.Float64bits(p.Y)
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
			buf[8+i] = byte(y >> (8 * i))
		}
		h.Write(buf[:])
	}
	h.Write([]byte(optSig))
	return h.Sum64()
}

func samePoints(a, b []sinrconn.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// acquireDeployment returns a refcounted Network for (pts, optSig),
// opening one on first use. The open itself runs outside s.mu — geometry
// validation is O(n²) — with a reservation so concurrent identical opens
// share the winner.
func (s *Server) acquireDeployment(pts []sinrconn.Point, optSig string, open func() (*sinrconn.Network, error)) (*deployment, bool, error) {
	key := deployKey(pts, optSig)
	s.mu.Lock()
	for _, d := range s.deployments[key] {
		if d.optSig == optSig && samePoints(d.pts, pts) {
			d.refs++
			s.mu.Unlock()
			return d, true, nil
		}
	}
	s.mu.Unlock()

	nw, err := open()
	if err != nil {
		return nil, false, err
	}
	d := &deployment{key: key, pts: pts, optSig: optSig, nw: nw, refs: 1}
	s.mu.Lock()
	// A concurrent identical open may have won the race; prefer the
	// resident one and discard ours.
	for _, other := range s.deployments[key] {
		if other.optSig == optSig && samePoints(other.pts, pts) {
			other.refs++
			s.mu.Unlock()
			nw.Close()
			return other, true, nil
		}
	}
	s.deployments[key] = append(s.deployments[key], d)
	s.mu.Unlock()
	return d, false, nil
}

// releaseDeployment drops one reference, closing the Network on the last.
func (s *Server) releaseDeployment(d *deployment) {
	s.mu.Lock()
	d.refs--
	if d.refs > 0 {
		s.mu.Unlock()
		return
	}
	list := s.deployments[d.key]
	for i, o := range list {
		if o == d {
			s.deployments[d.key] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(s.deployments[d.key]) == 0 {
		delete(s.deployments, d.key)
	}
	s.mu.Unlock()
	st := d.nw.CacheStats()
	d.nw.Close()
	s.mu.Lock()
	s.accumulateRetired(st)
	s.mu.Unlock()
}

// accumulateRetired folds a closed deployment's cache counters into the
// retired baseline (caller holds s.mu).
func (s *Server) accumulateRetired(st cache.Stats) {
	s.retired.Hits += st.Hits
	s.retired.Misses += st.Misses
	s.retired.Coalesced += st.Coalesced
	s.retired.Evictions += st.Evictions
	s.retired.Expirations += st.Expirations
	s.retired.Computes += st.Computes
	s.retired.ComputeNanos += st.ComputeNanos
	s.retired.Errors += st.Errors
}

// cacheStats aggregates result-cache counters across every live
// deployment plus the retired baseline.
func (s *Server) cacheStats() cache.Stats {
	s.mu.Lock()
	out := s.retired
	var live []*deployment
	for _, list := range s.deployments {
		live = append(live, list...)
	}
	s.mu.Unlock()
	for _, d := range live {
		st := d.nw.CacheStats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Coalesced += st.Coalesced
		out.Evictions += st.Evictions
		out.Expirations += st.Expirations
		out.Computes += st.Computes
		out.ComputeNanos += st.ComputeNanos
		out.Errors += st.Errors
		out.Size += st.Size
		out.Capacity += st.Capacity
	}
	return out
}

func (s *Server) session(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// addResult files a result under the session, evicting the oldest handle
// past the cap, and reports whether the pointer was already known (the
// "cached" response flag for operations that cannot ask the memo).
func (sess *session) addResult(r *sinrconn.Result, cap int) (id string, known bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	_, known = sess.seen[r]
	sess.nextID++
	id = fmt.Sprintf("r%d", sess.nextID)
	sess.results[id] = r
	sess.seen[r] = struct{}{}
	sess.order = append(sess.order, id)
	for len(sess.order) > cap {
		old := sess.order[0]
		sess.order = sess.order[1:]
		if or, ok := sess.results[old]; ok {
			delete(sess.results, old)
			delete(sess.seen, or)
		}
	}
	return id, known
}

func (sess *session) result(id string) (*sinrconn.Result, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	r, ok := sess.results[id]
	return r, ok
}

// ---- handlers ----

// httpError is an error with a status code.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// status maps an operation error to an HTTP status.
func status(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, sinrconn.ErrNetworkClosed):
		return http.StatusConflict
	case errors.Is(err, sinrconn.ErrNotNormalized), errors.Is(err, sinrconn.ErrInvalidGeometry),
		errors.Is(err, sinrconn.ErrInvalidOption):
		return http.StatusBadRequest
	case errors.Is(err, sinrconn.ErrNotConverged):
		// Las Vegas non-convergence: retryable with a different seed.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := status(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorJSON{Error: err.Error()})
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decode reads a bounded JSON body.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}

// reqCtx derives the operation context from the request: the HTTP request
// context (client disconnect cancels between slots) bounded by timeout_ms
// and the server's caps.
func (s *Server) reqCtx(r *http.Request, ms Millis) (context.Context, context.CancelFunc) {
	d := timeout(int64(ms), s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, &httpError{status: http.StatusServiceUnavailable, err: errors.New("server is draining")})
		return
	}
	var req OpenRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	sess, shared, err := s.openSession(req, "", true)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, OpenResponse{SessionID: sess.id, Nodes: sess.dep.nw.Len(), SharedDeployment: shared})
}

// openSession validates an open request, acquires (or shares) the
// content-addressed deployment, and registers the session. forceID pins
// the session id (journal recovery — Restore); "" allocates the next
// one. journal controls whether the open is recorded in the configured
// journal (recovery replays must not re-journal records already there).
func (s *Server) openSession(req OpenRequest, forceID string, journal bool) (*session, bool, error) {
	if len(req.Points) == 0 {
		return nil, false, badRequest("no points")
	}
	opts, err := req.Options.runOptions(true)
	if err != nil {
		return nil, false, badRequest("%v", err)
	}
	size := req.CacheSize
	if size == 0 {
		size = s.cfg.CacheSize
	}
	ttl := s.cfg.CacheTTL
	if req.CacheTTLMs > 0 {
		ttl = time.Duration(req.CacheTTLMs) * time.Millisecond
	}
	opts = append(opts, sinrconn.WithResultCache(size, ttl))
	if s.cfg.Workers > 0 {
		opts = append(opts, sinrconn.WithWorkers(s.cfg.Workers))
	}
	if s.cfg.Injector != nil {
		opts = append(opts, sinrconn.WithFaultInjector(s.cfg.Injector))
	}

	// The deployment signature covers everything that shapes the Network:
	// the canonical JSON of the options plus the cache bounds. The
	// injector is deliberately excluded — it never changes results.
	sig, _ := json.Marshal(req.Options)
	optSig := fmt.Sprintf("%s|cache=%d,%s", sig, size, ttl)
	pts := toPoints(req.Points)
	dep, shared, err := s.acquireDeployment(pts, optSig, func() (*sinrconn.Network, error) {
		return sinrconn.Open(pts, opts...)
	})
	if err != nil {
		return nil, false, err
	}

	s.mu.Lock()
	id := forceID
	if id == "" {
		s.nextSession++
		id = fmt.Sprintf("s%d", s.nextSession)
	} else {
		// Recovery: preserve the journaled id and keep the allocator
		// ahead of it so post-recovery opens never collide.
		if n, perr := strconv.ParseUint(strings.TrimPrefix(id, "s"), 10, 64); perr == nil && n > s.nextSession {
			s.nextSession = n
		}
		if _, exists := s.sessions[id]; exists {
			s.mu.Unlock()
			s.releaseDeployment(dep)
			return nil, false, fmt.Errorf("serve: session %q already live (duplicate journal open)", id)
		}
	}
	sess := &session{
		id:      id,
		dep:     dep,
		results: make(map[string]*sinrconn.Result),
		seen:    make(map[*sinrconn.Result]struct{}),
	}
	if s.cfg.BreakerThreshold > 0 {
		sess.brk = newBreaker(s.cfg.BreakerThreshold, breakerSeed(s.cfg.BreakerSeed, id))
	}
	s.sessions[id] = sess
	s.mu.Unlock()

	if journal && s.cfg.Journal != nil {
		rec := JournalRecord{Op: journalOpOpen, ID: id, Key: fmt.Sprintf("%016x", dep.key), Open: &req}
		if jerr := s.cfg.Journal.appendRecord(rec); jerr != nil {
			// A session whose open did not reach stable storage would
			// silently vanish on crash: fail the open instead of lying
			// about durability.
			s.dropSession(id)
			return nil, false, fmt.Errorf("serve: journal append: %w", jerr)
		}
	}
	return sess, shared, nil
}

// dropSession unregisters a session and releases its deployment
// reference, reporting whether it existed.
func (s *Server) dropSession(id string) bool {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	s.releaseDeployment(sess.dep)
	return true
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.dropSession(id) {
		s.writeError(w, &httpError{status: http.StatusNotFound, err: fmt.Errorf("unknown session %q", id)})
		return
	}
	if s.cfg.Journal != nil {
		// Best effort: a lost close record only resurrects a closed
		// session after a crash — a refcount, not a correctness problem.
		// The failure still lands in the journal's error counter.
		s.cfg.Journal.appendRecord(JournalRecord{Op: journalOpClose, ID: id}) //nolint:errcheck
	}
	s.writeJSON(w, map[string]string{"status": "closed"})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		s.writeError(w, &httpError{status: http.StatusNotFound, err: fmt.Errorf("unknown session %q", r.PathValue("id"))})
		return
	}
	if !s.breakerAdmit(w, sess) {
		return
	}
	var req RunRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	p, err := pipelineByName(req.Pipeline)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	opts, err := req.Options.runOptions(false)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	ctx, cancel := s.reqCtx(r, req.TimeoutMs)
	defer cancel()

	if req.Stream {
		s.streamRun(ctx, w, sess, p, req, opts)
		return
	}
	res, cached, err := sess.dep.nw.RunCached(ctx, p, opts...)
	s.breakerRecord(sess, err)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rid, _ := sess.addResult(res, s.cfg.MaxResultsPerSession)
	s.writeJSON(w, RunResponse{ResultID: rid, Cached: cached, Result: EncodeResult(res, req.IncludeTree)})
}

// resultLine is the terminal line of a streamed run.
type resultLine struct {
	Type string `json:"type"` // "result"
	RunResponse
}

// streamRun answers a run request with chunked newline-delimited JSON:
// one "slot" line per simulator slot, then a terminal "result" or "error"
// line. A memo hit streams no slot lines (nothing executed).
func (s *Server) streamRun(ctx context.Context, w http.ResponseWriter, sess *session, p sinrconn.Pipeline, req RunRequest, opts []sinrconn.RunOption) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var streamed int
	obs := func(e sinrconn.SlotEvent) {
		enc.Encode(SlotEventJSON{Type: "slot", Slot: e.Slot, Senders: e.Senders, Deliveries: e.Deliveries, Far: e.Far})
		streamed++
		// Flush in small batches: per-slot flushes would syscall thousands
		// of times per construction.
		if flusher != nil && streamed%64 == 0 {
			flusher.Flush()
		}
	}
	res, cached, err := sess.dep.nw.RunCached(ctx, p, append(opts, sinrconn.WithObserver(obs))...)
	s.breakerRecord(sess, err)
	if err != nil {
		enc.Encode(ErrorJSON{Type: "error", Error: err.Error()})
		if flusher != nil {
			flusher.Flush()
		}
		return
	}
	rid, _ := sess.addResult(res, s.cfg.MaxResultsPerSession)
	enc.Encode(resultLine{Type: "result", RunResponse: RunResponse{ResultID: rid, Cached: cached, Result: EncodeResult(res, req.IncludeTree)}})
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleRunMatrix(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		s.writeError(w, &httpError{status: http.StatusNotFound, err: fmt.Errorf("unknown session %q", r.PathValue("id"))})
		return
	}
	if !s.breakerAdmit(w, sess) {
		return
	}
	var req MatrixRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Specs) == 0 {
		s.writeError(w, badRequest("no specs"))
		return
	}
	specs := make([]sinrconn.RunSpec, len(req.Specs))
	for i, sp := range req.Specs {
		p, err := pipelineByName(sp.Pipeline)
		if err != nil {
			s.writeError(w, badRequest("spec %d: %v", i, err))
			return
		}
		opts, err := sp.Options.runOptions(false)
		if err != nil {
			s.writeError(w, badRequest("spec %d: %v", i, err))
			return
		}
		specs[i] = sinrconn.RunSpec{Pipeline: p, Opts: opts}
	}
	ctx, cancel := s.reqCtx(r, req.TimeoutMs)
	defer cancel()
	results, err := sess.dep.nw.RunMatrix(ctx, specs)
	s.breakerRecord(sess, err)
	resp := MatrixResponse{
		Results:   make([]*ResultJSON, len(specs)),
		ResultIDs: make([]string, len(specs)),
	}
	if err != nil {
		// Per-spec failures leave nil result entries; surface the joined
		// error once and per-slot below.
		resp.Errors = make([]string, len(specs))
	}
	for i, res := range results {
		if res == nil {
			if resp.Errors != nil {
				resp.Errors[i] = fmt.Sprintf("spec %d failed", i)
			}
			continue
		}
		rj := EncodeResult(res, req.IncludeTree)
		resp.Results[i] = &rj
		resp.ResultIDs[i], _ = sess.addResult(res, s.cfg.MaxResultsPerSession)
	}
	if err != nil {
		// Overwrite placeholders with the real split errors when
		// available.
		for i := range results {
			if results[i] == nil {
				resp.Errors[i] = err.Error()
			}
		}
	}
	s.writeJSON(w, resp)
}

// boundResult resolves a result handle for follow-up operations.
func (s *Server) boundResult(sess *session, id string) (*sinrconn.Result, error) {
	if id == "" {
		return nil, badRequest("missing result_id")
	}
	r, ok := sess.result(id)
	if !ok {
		return nil, &httpError{status: http.StatusNotFound, err: fmt.Errorf("unknown result %q", id)}
	}
	return r, nil
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		s.writeError(w, &httpError{status: http.StatusNotFound, err: fmt.Errorf("unknown session %q", r.PathValue("id"))})
		return
	}
	if !s.breakerAdmit(w, sess) {
		return
	}
	var req JoinRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	res, err := s.boundResult(sess, req.ResultID)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Points) == 0 {
		s.writeError(w, badRequest("no points to join"))
		return
	}
	opts, err := req.Options.runOptions(false)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	ctx, cancel := s.reqCtx(r, req.TimeoutMs)
	defer cancel()
	grown, err := res.Network().Join(ctx, res, toPoints(req.Points), opts...)
	s.breakerRecord(sess, err)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rid, known := sess.addResult(grown, s.cfg.MaxResultsPerSession)
	s.writeJSON(w, RunResponse{ResultID: rid, Cached: known, Result: EncodeResult(grown, req.IncludeTree)})
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		s.writeError(w, &httpError{status: http.StatusNotFound, err: fmt.Errorf("unknown session %q", r.PathValue("id"))})
		return
	}
	if !s.breakerAdmit(w, sess) {
		return
	}
	var req RepairRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	res, err := s.boundResult(sess, req.ResultID)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if (len(req.Failed) == 0) == (len(req.Links) == 0) {
		s.writeError(w, badRequest("exactly one of failed (nodes) or links must be non-empty"))
		return
	}
	opts, err := req.Options.runOptions(false)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	ctx, cancel := s.reqCtx(r, req.TimeoutMs)
	defer cancel()
	var repaired *sinrconn.Result
	if len(req.Failed) > 0 {
		repaired, err = res.Network().Repair(ctx, res, req.Failed, opts...)
	} else {
		links := make([]sinrconn.Link, len(req.Links))
		for i, l := range req.Links {
			links[i] = sinrconn.Link{From: l.From, To: l.To}
		}
		repaired, err = res.Network().RepairLinks(ctx, res, links, opts...)
	}
	s.breakerRecord(sess, err)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rid, known := sess.addResult(repaired, s.cfg.MaxResultsPerSession)
	s.writeJSON(w, RunResponse{ResultID: rid, Cached: known, Result: EncodeResult(repaired, req.IncludeTree)})
}

func (s *Server) handleChurn(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		s.writeError(w, &httpError{status: http.StatusNotFound, err: fmt.Errorf("unknown session %q", r.PathValue("id"))})
		return
	}
	if !s.breakerAdmit(w, sess) {
		return
	}
	var req ChurnRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	spec, err := req.traceSpec()
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	ctx, cancel := s.reqCtx(r, req.TimeoutMs)
	defer cancel()
	report, err := sess.dep.nw.Churn(ctx, spec)
	s.breakerRecord(sess, err)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rid, _ := sess.addResult(report.Final, s.cfg.MaxResultsPerSession)
	soft := make([]string, len(report.Soft))
	for i, e := range report.Soft {
		soft[i] = e.Error()
	}
	s.writeJSON(w, ChurnResponse{
		ResultID: rid,
		Result:   EncodeResult(report.Final, req.IncludeTree),
		Stats:    report.Stats,
		Soft:     soft,
	})
}

// ---- metrics & health ----

// endpointStats accumulates per-endpoint request counters.
type endpointStats struct {
	requests uint64
	errors   uint64
	nanos    uint64
}

type metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats

	// panics counts handler panics converted to 500s by the recovery
	// middleware (the process survived each one).
	panics atomic.Uint64
	// breakerOpened / breakerRejected / breakerProbes count circuit
	// breaker transitions and rejections across all sessions.
	breakerOpened   atomic.Uint64
	breakerRejected atomic.Uint64
	breakerProbes   atomic.Uint64
}

// instrument wraps a handler with request counting and latency
// accumulation per endpoint.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.metrics.mu.Lock()
		if s.metrics.endpoints == nil {
			s.metrics.endpoints = make(map[string]*endpointStats)
		}
		es := s.metrics.endpoints[name]
		if es == nil {
			es = &endpointStats{}
			s.metrics.endpoints[name] = es
		}
		es.requests++
		if sw.status >= 400 {
			es.errors++
		}
		es.nanos += uint64(time.Since(start))
		s.metrics.mu.Unlock()
	}
}

// statusWriter records the response status for error counting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// healthCache is the cache block of a /healthz response.
type healthCache struct {
	Hits         uint64  `json:"hits"`
	Misses       uint64  `json:"misses"`
	Coalesced    uint64  `json:"coalesced"`
	Evictions    uint64  `json:"evictions"`
	Expirations  uint64  `json:"expirations"`
	HitRate      float64 `json:"hit_rate"`
	Size         int     `json:"size"`
	Capacity     int     `json:"capacity"`
	Computes     uint64  `json:"computes"`
	ComputeNanos uint64  `json:"compute_nanos"`
}

// healthAdmission is the admission-control block of a /healthz response
// (present only when Config.MaxConcurrent > 0).
type healthAdmission struct {
	Running       int64  `json:"running"`
	Queued        int64  `json:"queued"`
	Admitted      uint64 `json:"admitted"`
	ShedQueueFull uint64 `json:"shed_queue_full"`
	ShedDeadline  uint64 `json:"shed_deadline"`
	WaitCanceled  uint64 `json:"wait_canceled"`
}

// healthBreaker is the circuit-breaker block of a /healthz response
// (present only when breakers are enabled).
type healthBreaker struct {
	Opened   uint64 `json:"opened"`
	Rejected uint64 `json:"rejected"`
	Probes   uint64 `json:"probes"`
}

// Health is the /healthz body.
type Health struct {
	Status      string      `json:"status"` // "ok" | "draining"
	Sessions    int         `json:"sessions"`
	Deployments int         `json:"deployments"`
	Recovered   int         `json:"recovered,omitempty"` // sessions rebuilt by -recover
	Panics      uint64      `json:"panics"`
	Cache       healthCache `json:"cache"`

	Admission *healthAdmission `json:"admission,omitempty"`
	Breaker   *healthBreaker   `json:"breaker,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sessions := len(s.sessions)
	recovered := s.recovered
	deployments := 0
	for _, list := range s.deployments {
		deployments += len(list)
	}
	s.mu.Unlock()
	st := s.cacheStats()
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	h := Health{
		Status:      status,
		Sessions:    sessions,
		Deployments: deployments,
		Recovered:   recovered,
		Panics:      s.metrics.panics.Load(),
		Cache: healthCache{
			Hits:         st.Hits,
			Misses:       st.Misses,
			Coalesced:    st.Coalesced,
			Evictions:    st.Evictions,
			Expirations:  st.Expirations,
			HitRate:      st.HitRate(),
			Size:         st.Size,
			Capacity:     st.Capacity,
			Computes:     st.Computes,
			ComputeNanos: st.ComputeNanos,
		},
	}
	if l := s.limiter; l != nil {
		h.Admission = &healthAdmission{
			Running:       l.running.Load(),
			Queued:        l.queued.Load(),
			Admitted:      l.admitted.Load(),
			ShedQueueFull: l.shedQueueFull.Load(),
			ShedDeadline:  l.shedDeadline.Load(),
			WaitCanceled:  l.waitCanceled.Load(),
		}
	}
	if s.cfg.BreakerThreshold > 0 {
		h.Breaker = &healthBreaker{
			Opened:   s.metrics.breakerOpened.Load(),
			Rejected: s.metrics.breakerRejected.Load(),
			Probes:   s.metrics.breakerProbes.Load(),
		}
	}
	s.writeJSON(w, h)
}

// handleMetrics exports Prometheus-style text counters: result-cache
// hit/miss/eviction/latency, per-endpoint request counts and latency
// sums, and gauges for sessions and drain state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.cacheStats()
	s.mu.Lock()
	sessions := len(s.sessions)
	deployments := 0
	for _, list := range s.deployments {
		deployments += len(list)
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE serve_cache_hits_total counter\nserve_cache_hits_total %d\n", st.Hits)
	fmt.Fprintf(w, "# TYPE serve_cache_misses_total counter\nserve_cache_misses_total %d\n", st.Misses)
	fmt.Fprintf(w, "# TYPE serve_cache_coalesced_total counter\nserve_cache_coalesced_total %d\n", st.Coalesced)
	fmt.Fprintf(w, "# TYPE serve_cache_evictions_total counter\nserve_cache_evictions_total %d\n", st.Evictions)
	fmt.Fprintf(w, "# TYPE serve_cache_expirations_total counter\nserve_cache_expirations_total %d\n", st.Expirations)
	fmt.Fprintf(w, "# TYPE serve_cache_compute_total counter\nserve_cache_compute_total %d\n", st.Computes)
	fmt.Fprintf(w, "# TYPE serve_cache_compute_seconds_total counter\nserve_cache_compute_seconds_total %g\n", float64(st.ComputeNanos)/1e9)
	fmt.Fprintf(w, "# TYPE serve_cache_errors_total counter\nserve_cache_errors_total %d\n", st.Errors)
	fmt.Fprintf(w, "# TYPE serve_cache_hit_rate gauge\nserve_cache_hit_rate %g\n", st.HitRate())
	fmt.Fprintf(w, "# TYPE serve_cache_entries gauge\nserve_cache_entries %d\n", st.Size)
	fmt.Fprintf(w, "# TYPE serve_sessions gauge\nserve_sessions %d\n", sessions)
	fmt.Fprintf(w, "# TYPE serve_deployments gauge\nserve_deployments %d\n", deployments)
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(w, "# TYPE serve_draining gauge\nserve_draining %d\n", draining)
	fmt.Fprintf(w, "# TYPE serve_panics_total counter\nserve_panics_total %d\n", s.metrics.panics.Load())
	fmt.Fprintf(w, "# TYPE serve_recovered_sessions gauge\nserve_recovered_sessions %d\n", s.recoveredCount())
	if l := s.limiter; l != nil {
		fmt.Fprintf(w, "# TYPE serve_admission_running gauge\nserve_admission_running %d\n", l.running.Load())
		fmt.Fprintf(w, "# TYPE serve_admission_queued gauge\nserve_admission_queued %d\n", l.queued.Load())
		fmt.Fprintf(w, "# TYPE serve_admitted_total counter\nserve_admitted_total %d\n", l.admitted.Load())
		fmt.Fprintf(w, "# TYPE serve_shed_total counter\n")
		fmt.Fprintf(w, "serve_shed_total{reason=\"queue_full\"} %d\n", l.shedQueueFull.Load())
		fmt.Fprintf(w, "serve_shed_total{reason=\"deadline\"} %d\n", l.shedDeadline.Load())
		fmt.Fprintf(w, "serve_shed_total{reason=\"wait_canceled\"} %d\n", l.waitCanceled.Load())
	}
	if s.cfg.BreakerThreshold > 0 {
		fmt.Fprintf(w, "# TYPE serve_breaker_opened_total counter\nserve_breaker_opened_total %d\n", s.metrics.breakerOpened.Load())
		fmt.Fprintf(w, "# TYPE serve_breaker_rejected_total counter\nserve_breaker_rejected_total %d\n", s.metrics.breakerRejected.Load())
		fmt.Fprintf(w, "# TYPE serve_breaker_probes_total counter\nserve_breaker_probes_total %d\n", s.metrics.breakerProbes.Load())
	}
	if j := s.cfg.Journal; j != nil {
		fmt.Fprintf(w, "# TYPE serve_journal_records_total counter\nserve_journal_records_total %d\n", j.Records())
		fmt.Fprintf(w, "# TYPE serve_journal_errors_total counter\nserve_journal_errors_total %d\n", j.Errors())
	}
	if plan, ok := s.cfg.Injector.(*faults.Plan); ok {
		fmt.Fprintf(w, "# TYPE serve_fault_visits_total counter\n")
		for _, c := range plan.Counts() {
			fmt.Fprintf(w, "serve_fault_visits_total{site=%q} %d\n", c.Site, c.Visits)
		}
		fmt.Fprintf(w, "# TYPE serve_fault_injected_total counter\n")
		for _, c := range plan.Counts() {
			fmt.Fprintf(w, "serve_fault_injected_total{site=%q} %d\n", c.Site, c.Fired)
		}
	}

	s.metrics.mu.Lock()
	names := make([]string, 0, len(s.metrics.endpoints))
	for name := range s.metrics.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# TYPE serve_requests_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "serve_requests_total{endpoint=%q} %d\n", name, s.metrics.endpoints[name].requests)
	}
	fmt.Fprintf(w, "# TYPE serve_request_errors_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "serve_request_errors_total{endpoint=%q} %d\n", name, s.metrics.endpoints[name].errors)
	}
	fmt.Fprintf(w, "# TYPE serve_request_seconds_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "serve_request_seconds_total{endpoint=%q} %g\n", name, float64(s.metrics.endpoints[name].nanos)/1e9)
	}
	s.metrics.mu.Unlock()
}
