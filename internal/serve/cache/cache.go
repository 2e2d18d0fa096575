// Package cache is the serving layer's result cache: a size- and
// TTL-bounded LRU with singleflight request coalescing and hit/miss/
// eviction/latency counters.
//
// It generalizes the fixed 128-entry result memo the session API started
// with (sinrconn's maxCachedResults): entries are evicted
// least-recently-used once the capacity is reached and expire after an
// optional TTL, concurrent lookups of the same missing key share ONE
// compute (the others block and receive the leader's committed value), and
// every outcome is counted so a serving daemon can export hit rate — which,
// at a ~5×10⁴ hit/rebuild cost ratio (BENCH_api.json), is its capacity.
//
// Commit discipline: a computed value is inserted only when its compute
// function returns without error. A canceled or failed compute inserts
// nothing and wakes any coalesced waiters to retry (one of them becomes the
// new leader); a waiter whose own context dies stops waiting with its own
// context error. Concurrent identical queries therefore never observe a
// half-populated entry, and a canceled leader never poisons followers that
// are still live.
package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Stats is a snapshot of the cache's counters. All counts are cumulative
// since New.
type Stats struct {
	// Hits counts lookups served from a live entry.
	Hits uint64
	// Misses counts lookups that found no live entry (each miss leads a
	// compute or joins one).
	Misses uint64
	// Coalesced counts misses that joined another caller's in-flight
	// compute instead of starting their own.
	Coalesced uint64
	// Evictions counts entries dropped by the LRU capacity bound.
	Evictions uint64
	// Expirations counts entries dropped because their TTL passed.
	Expirations uint64
	// Computes counts compute functions actually run (successful or not);
	// ComputeNanos is their cumulative wall time, so
	// ComputeNanos/Computes is the mean miss-path latency. A compute that
	// runs or waits on another key's compute includes that time: a
	// sinrconn PipelineRescheduleMean miss whose Init is missing too adds
	// two Computes and counts its Init's time twice.
	Computes     uint64
	ComputeNanos uint64
	// Errors counts computes that returned an error (nothing committed).
	Errors uint64
	// Panics counts computes that panicked. The panic is re-raised in the
	// leader after coalesced waiters are released with a leaderPanicError
	// (nothing committed), so a panicking compute can never wedge its
	// followers.
	Panics uint64
	// Size and Capacity describe the entry table at snapshot time.
	Size     int
	Capacity int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one cached value on the intrusive LRU list (head = most
// recently used).
type entry[K comparable, V any] struct {
	key        K
	val        V
	expires    time.Time // zero = never
	prev, next *entry[K, V]
}

// flight is one in-progress compute that concurrent identical queries
// coalesce onto.
type flight[V any] struct {
	done chan struct{} // closed when the compute finishes
	val  V
	err  error
}

// PanicError is the error coalesced waiters receive when their leader's
// compute function panicked. The panic value itself is re-raised only in
// the leader's goroutine (after the waiters are released); waiters get
// this error instead of a retry because a panic — unlike a compute error
// such as a canceled context or a non-converged run — signals a bug or an
// injected crash, and silently re-running the same function from every
// waiter would turn one crash into a herd of them.
type PanicError struct {
	// Value is the value the compute function panicked with.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("cache: compute panicked: %v", e.Value)
}

// Cache is a size- and TTL-bounded LRU with singleflight coalescing.
// The zero value is not usable; call New. All methods are safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration
	now      func() time.Time
	entries  map[K]*entry[K, V]
	head     *entry[K, V] // most recently used
	tail     *entry[K, V] // least recently used
	flights  map[K]*flight[V]
	stats    Stats
}

// New builds a cache holding at most capacity entries (capacity ≤ 0 means
// 1), each expiring ttl after insertion (ttl ≤ 0 means never).
func New[K comparable, V any](capacity int, ttl time.Duration) *Cache[K, V] {
	if capacity <= 0 {
		capacity = 1
	}
	if ttl < 0 {
		ttl = 0
	}
	return &Cache[K, V]{
		capacity: capacity,
		ttl:      ttl,
		now:      time.Now,
		entries:  make(map[K]*entry[K, V]),
		flights:  make(map[K]*flight[V]),
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = len(c.entries)
	s.Capacity = c.capacity
	return s
}

// Get returns the live entry for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookup(key)
}

// lookup is Get under c.mu: it counts the outcome and drops an expired
// entry on contact.
func (c *Cache[K, V]) lookup(key K) (V, bool) {
	if e, ok := c.entries[key]; ok {
		if e.expires.IsZero() || c.now().Before(e.expires) {
			c.moveToFront(e)
			c.stats.Hits++
			return e.val, true
		}
		c.remove(e)
		c.stats.Expirations++
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// Add commits a value for key unconditionally (the non-coalescing path:
// callers that computed outside the cache, e.g. observed runs that must
// not share slot-event streams). It never errors and evicts as needed.
func (c *Cache[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.commit(key, val)
}

// Do returns the cached value for key, computing and committing it on a
// miss. Concurrent Do calls for the same key share one compute: the first
// caller runs fn, the rest wait. hit reports whether the value was served
// without running fn in this call (a cache hit or a coalesced wait).
//
// fn's error (a canceled run, a failed construction) commits nothing; any
// coalesced waiters retry, so one live caller always makes progress. ctx
// bounds only this caller's WAIT on someone else's compute — fn itself is
// responsible for honoring whatever context it closed over.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (val V, hit bool, err error) {
	for {
		c.mu.Lock()
		if v, ok := c.lookup(key); ok {
			c.mu.Unlock()
			return v, true, nil
		}
		if f, ok := c.flights[key]; ok {
			c.stats.Coalesced++
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				var zero V
				return zero, false, ctx.Err()
			}
			if f.err == nil {
				return f.val, true, nil
			}
			// The leader panicked: the panic value was re-raised in the
			// leader's goroutine and waiters receive it as a PanicError —
			// returned, not retried (see PanicError).
			var pe *PanicError
			if errors.As(f.err, &pe) {
				var zero V
				return zero, false, f.err
			}
			// The leader failed (canceled, non-converged, …): nothing was
			// committed. Loop to retry — this caller may become the new
			// leader. Its own ctx bounds the loop.
			if err := ctx.Err(); err != nil {
				var zero V
				return zero, false, err
			}
			continue
		}
		f := &flight[V]{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		start := c.now()
		var panicVal any
		panicked := false
		func() {
			// A panicking fn must not wedge the flight: without this
			// recover, the flight entry would stay in c.flights with done
			// never closed, blocking every coalesced waiter forever and
			// poisoning the key for all future callers.
			defer func() {
				if r := recover(); r != nil {
					panicked, panicVal = true, r
					f.err = &PanicError{Value: r}
				}
			}()
			f.val, f.err = fn()
		}()
		elapsed := c.now().Sub(start)

		c.mu.Lock()
		c.stats.Computes++
		c.stats.ComputeNanos += uint64(elapsed)
		switch {
		case panicked:
			c.stats.Panics++
			c.stats.Errors++
		case f.err == nil:
			c.commit(key, f.val)
		default:
			c.stats.Errors++
		}
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		if panicked {
			// Waiters are released; the leader's own stack still owns the
			// crash. Re-raise so the bug (or injected fault) surfaces where
			// it happened — the daemon's recovery middleware turns it into
			// a 500 instead of a dead process.
			panic(panicVal)
		}
		return f.val, false, f.err
	}
}

// commit inserts (or refreshes) key under c.mu, evicting LRU entries past
// capacity.
func (c *Cache[K, V]) commit(key K, val V) {
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	if e, ok := c.entries[key]; ok {
		e.val = val
		e.expires = expires
		c.moveToFront(e)
		return
	}
	e := &entry[K, V]{key: key, val: val, expires: expires}
	c.entries[key] = e
	c.pushFront(e)
	for len(c.entries) > c.capacity {
		lru := c.tail
		c.remove(lru)
		c.stats.Evictions++
	}
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache[K, V]) remove(e *entry[K, V]) {
	c.unlink(e)
	delete(c.entries, e.key)
}
