package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names an injection point. Sites are a closed registry: the
// string is both the spec key (`served -chaos 'serve.conn.reset=0.01'`)
// and the /metrics label, so adding a site means adding a constant
// here and wiring the Fire call at the new code path.
type Site string

// The injection-site registry (DESIGN.md §13.2). Each constant names
// the exact code path that consults it.
const (
	// ServeHandlerDelay stalls an HTTP handler for the plan's Delay
	// before the request is admitted (internal/serve middleware).
	ServeHandlerDelay Site = "serve.handler.delay"
	// ServeConnReset aborts the HTTP connection mid-request via
	// http.ErrAbortHandler: the client observes a connection reset.
	ServeConnReset Site = "serve.conn.reset"
	// CacheLeaderPanic panics inside the compute function executed by
	// the singleflight result-memo leader (Network.compute), so the
	// panic propagates through the coalescing cache to all waiters.
	CacheLeaderPanic Site = "cache.leader.panic"
	// PoolWorkerStall puts an engine pool worker to sleep for Delay
	// before it runs a job (internal/sim.Pool). It fires only in the slot
	// stages that fan out to the pool; a stage below its fan-out floor
	// runs on the engine goroutine and never reaches it.
	PoolWorkerStall Site = "pool.worker.stall"
	// ChurnRepairFail makes one churn repair attempt fail with a
	// non-convergence error before the repair runs, exercising the
	// degradation ladder (retry → rebuild → ErrRetryExhausted).
	ChurnRepairFail Site = "churn.repair.fail"
	// SimSlotSlow stalls one slot of the slot loop for Delay
	// (internal/sim.Engine.Step).
	SimSlotSlow Site = "sim.slot.slow"
)

// Sites lists every registered site in stable order (spec validation,
// metrics rendering).
func Sites() []Site {
	return []Site{
		ServeHandlerDelay,
		ServeConnReset,
		CacheLeaderPanic,
		PoolWorkerStall,
		ChurnRepairFail,
		SimSlotSlow,
	}
}

func validSite(s Site) bool {
	for _, k := range Sites() {
		if s == k {
			return true
		}
	}
	return false
}

// Action describes one fired injection: which site, the ordinal of the
// firing visit at that site (1-based), and how long delay-style sites
// should stall. Error- and panic-style sites ignore Delay.
type Action struct {
	Site  Site
	Seq   uint64
	Delay time.Duration
}

// Injector is the hook every instrumented code path holds. Fire
// reports whether the current visit to site should inject a fault, and
// with what parameters. Implementations must be safe for concurrent
// use and must not read the clock or global rand.
type Injector interface {
	Fire(site Site) (Action, bool)
}

// Disabled is the production no-op injector: Fire never fires and
// keeps no state. Instrumented paths also accept a nil Injector and
// treat it as Disabled, so production structs need no setup.
var Disabled Injector = disabled{}

type disabled struct{}

func (disabled) Fire(Site) (Action, bool) { return Action{}, false }

// Spec configures a Plan: a seed, a per-site fire rate in [0, 1], and
// the stall duration for delay-style sites.
type Spec struct {
	// Seed keys the per-visit hash; two plans with equal Spec fire on
	// exactly the same visit ordinals.
	Seed int64
	// Delay is how long delay-style sites (serve.handler.delay,
	// pool.worker.stall, sim.slot.slow) stall when they fire.
	Delay time.Duration
	// Rates maps each site to its fire probability. Absent sites
	// never fire.
	Rates map[Site]float64
}

// Validate reports the first problem with the spec, or nil.
func (s Spec) Validate() error {
	if s.Delay < 0 {
		return fmt.Errorf("faults: negative delay %v", s.Delay)
	}
	// Sort the configured sites so "first problem" is deterministic —
	// this package sits in the replay-deterministic lint set.
	sites := make([]Site, 0, len(s.Rates))
	for site := range s.Rates {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, site := range sites {
		if !validSite(site) {
			return fmt.Errorf("faults: unknown site %q", site)
		}
		if r := s.Rates[site]; r < 0 || r > 1 {
			return fmt.Errorf("faults: site %s rate %v outside [0,1]", site, r)
		}
	}
	return nil
}

// String renders the spec in ParseSpec's format with sites in registry
// order, so String/ParseSpec round-trip.
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", s.Seed)
	if s.Delay != 0 {
		fmt.Fprintf(&b, ",delay=%s", s.Delay)
	}
	for _, site := range Sites() {
		if r, ok := s.Rates[site]; ok {
			fmt.Fprintf(&b, ",%s=%v", site, r)
		}
	}
	return b.String()
}

// ParseSpec parses the `served -chaos` flag syntax: a comma-separated
// list of key=value pairs where key is `seed`, `delay`, or a site
// name, e.g.
//
//	seed=42,delay=2ms,serve.handler.delay=0.05,cache.leader.panic=0.01
func ParseSpec(text string) (Spec, error) {
	s := Spec{Rates: map[Site]float64{}}
	if strings.TrimSpace(text) == "" {
		return Spec{}, fmt.Errorf("faults: empty spec")
	}
	for _, field := range strings.Split(text, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: malformed field %q (want key=value)", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "seed":
			seed, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			s.Seed = seed
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: bad delay %q: %v", val, err)
			}
			s.Delay = d
		default:
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: bad rate %q for site %q: %v", val, key, err)
			}
			s.Rates[Site(key)] = rate
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Plan is a deterministic fault schedule: a thread-safe Injector whose
// k-th visit to each site fires iff hash(seed, site, k) falls under
// the site's rate. Counters are observational only — the fire decision
// depends solely on the per-site visit ordinal, never on wall time or
// shared mutable state beyond that ordinal.
type Plan struct {
	spec  Spec
	sites map[Site]*siteState
}

type siteState struct {
	salt      uint64 // hash of the site name, mixed into every visit
	threshold uint64 // rate scaled to the uint64 range
	delay     time.Duration
	visits    atomic.Uint64
	fired     atomic.Uint64
}

// NewPlan builds a Plan from a validated spec. Sites absent from
// spec.Rates (or present with rate 0) never fire but still count
// visits, so Counts reports coverage of every instrumented path.
func NewPlan(spec Spec) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{spec: spec, sites: make(map[Site]*siteState, len(Sites()))}
	for _, site := range Sites() {
		p.sites[site] = &siteState{
			salt:      splitmix64(uint64(spec.Seed) ^ hashSite(site)),
			threshold: rateThreshold(spec.Rates[site]),
			delay:     spec.Delay,
		}
	}
	return p, nil
}

// MustPlan is NewPlan for specs known valid at compile time (tests).
func MustPlan(spec Spec) *Plan {
	p, err := NewPlan(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// Fire implements Injector. The decision for visit k at a site is
// splitmix64(salt ⊕ k) < threshold — stateless given the ordinal, so
// identical visit sequences replay identical fault sequences.
func (p *Plan) Fire(site Site) (Action, bool) {
	st, ok := p.sites[site]
	if !ok {
		return Action{}, false
	}
	visit := st.visits.Add(1)
	if st.threshold == 0 || splitmix64(st.salt^visit) >= st.threshold {
		return Action{}, false
	}
	seq := st.fired.Add(1)
	return Action{Site: site, Seq: seq, Delay: st.delay}, true
}

// SiteCount is one row of Counts: visits observed and faults fired at
// a site since the plan was built.
type SiteCount struct {
	Site   Site
	Visits uint64
	Fired  uint64
}

// Counts snapshots per-site counters in registry order (rendered on
// /metrics as serve_fault_injected_total / serve_fault_visits_total).
func (p *Plan) Counts() []SiteCount {
	out := make([]SiteCount, 0, len(p.sites))
	for _, site := range Sites() {
		st := p.sites[site]
		out = append(out, SiteCount{Site: site, Visits: st.visits.Load(), Fired: st.fired.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// rateThreshold maps a rate in [0, 1] to the uint64 hash threshold.
// 1.0 saturates so the comparison `hash < threshold` always fires.
func rateThreshold(rate float64) uint64 {
	switch {
	case rate <= 0:
		return 0
	case rate >= 1:
		return ^uint64(0)
	default:
		return uint64(rate * float64(1<<63) * 2)
	}
}

// hashSite folds a site name into a uint64 (FNV-1a) so each site gets
// an independent hash stream from the same seed.
func hashSite(site Site) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= prime
	}
	return h
}

// splitmix64 is the standard 64-bit finalizer (Steele et al.): a
// bijective avalanche over the visit ordinal, giving uniform fire
// decisions without any sequential generator state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
