package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// entryCount returns the number of resident entries, expired ones included
// until an access drops them.
func (c *Cache[K, V]) entryCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// TestLRUEvictionOrder pins the eviction order: least recently USED goes
// first, and a Get refreshes recency.
func TestLRUEvictionOrder(t *testing.T) {
	c := New[int, string](3, 0)
	for i := 1; i <= 3; i++ {
		c.Add(i, fmt.Sprint("v", i))
	}
	// Touch 1 so 2 becomes LRU.
	if _, ok := c.Get(1); !ok {
		t.Fatal("expected hit on 1")
	}
	c.Add(4, "v4") // evicts 2
	if _, ok := c.Get(2); ok {
		t.Error("2 should have been evicted (LRU)")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%d should still be cached", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Size != 3 {
		t.Errorf("size = %d, want 3", st.Size)
	}
}

// TestTTLExpiry pins TTL semantics with a fake clock: entries serve until
// the deadline and are dropped (and recounted as expirations) after it.
func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	c := New[string, int](8, time.Minute)
	c.now = func() time.Time { return now }

	c.Add("k", 42)
	if v, ok := c.Get("k"); !ok || v != 42 {
		t.Fatalf("Get = %v %v, want 42 true", v, ok)
	}
	now = now.Add(59 * time.Second)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("entry expired early")
	}
	now = now.Add(2 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry survived its TTL")
	}
	if st := c.Stats(); st.Expirations != 1 || st.Size != 0 {
		t.Errorf("stats = %+v, want 1 expiration, size 0", st)
	}
	// Recompute-on-miss after expiry commits a fresh entry.
	v, hit, err := c.Do(context.Background(), "k", func() (int, error) { return 43, nil })
	if err != nil || hit || v != 43 {
		t.Fatalf("Do after expiry = %v %v %v, want 43 false nil", v, hit, err)
	}
}

// TestDoCoalesces pins singleflight: N concurrent identical misses run the
// compute exactly once and all receive the committed value.
func TestDoCoalesces(t *testing.T) {
	c := New[string, int](8, 0)
	var computes atomic.Int32
	gate := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	vals := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "k", func() (int, error) {
				computes.Add(1)
				<-gate // hold the flight open so everyone piles on
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	// Let callers reach the flight, then release the leader.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("computes = %d, want 1 (coalescing)", got)
	}
	for i, v := range vals {
		if v != 7 {
			t.Errorf("caller %d got %d, want 7", i, v)
		}
	}
	if st := c.Stats(); st.Coalesced == 0 {
		t.Errorf("stats = %+v, want coalesced > 0", st)
	}
}

// TestDoFailureCommitsNothing pins the commit discipline: an erroring
// compute inserts no entry, and a coalesced waiter retries and succeeds
// with its own compute rather than inheriting the canceled leader's error.
func TestDoFailureCommitsNothing(t *testing.T) {
	c := New[string, int](8, 0)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	sentinel := errors.New("canceled mid-run")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do(context.Background(), "k", func() (int, error) {
			close(leaderIn)
			<-release
			return 0, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("leader err = %v, want sentinel", err)
		}
	}()

	<-leaderIn // the leader is mid-compute; this Do must coalesce
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, hit, err := c.Do(context.Background(), "k", func() (int, error) { return 99, nil })
		if err != nil || v != 99 {
			t.Errorf("follower = %v %v %v, want 99 after retry", v, hit, err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	<-done

	if v, ok := c.Get("k"); !ok || v != 99 {
		t.Errorf("cache holds %v %v, want the follower's 99", v, ok)
	}
	if st := c.Stats(); st.Errors != 1 {
		t.Errorf("stats = %+v, want 1 compute error", st)
	}
}

// TestDoWaiterCtx pins that a waiter's own dead context frees it from an
// in-flight compute it did not lead.
func TestDoWaiterCtx(t *testing.T) {
	c := New[string, int](8, 0)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go c.Do(context.Background(), "k", func() (int, error) {
		close(leaderIn)
		<-release
		return 1, nil
	})
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	_, _, err := c.Do(ctx, "k", func() (int, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestConcurrentChurn hammers the cache from many goroutines (run under
// -race): evicted values must remain readable by holders, and the entry
// table must never exceed capacity.
func TestConcurrentChurn(t *testing.T) {
	type payload struct{ k, v int }
	c := New[int, *payload](8, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 64
				p, _, err := c.Do(context.Background(), k, func() (*payload, error) {
					return &payload{k: k, v: k * k}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				// The pointer stays coherent even if the entry was evicted
				// the instant after we received it.
				if p.k != k || p.v != k*k {
					t.Errorf("corrupted payload %+v for key %d", p, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.entryCount(); n > 8 {
		t.Errorf("len = %d exceeds capacity 8", n)
	}
}

// TestLeaderPanicReleasesFollowers pins the singleflight panic contract:
// a panicking leader must release every coalesced waiter with a
// *PanicError (previously they blocked forever on the never-closed done
// channel), re-raise the panic value in its own goroutine, commit
// nothing, and leave the key usable by later callers.
func TestLeaderPanicReleasesFollowers(t *testing.T) {
	c := New[string, int](8, 0)
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			r := recover()
			if r != "boom" {
				t.Errorf("leader recovered %v, want the original panic value", r)
			}
		}()
		c.Do(context.Background(), "k", func() (int, error) {
			close(leaderIn)
			<-release
			panic("boom")
		})
		t.Error("leader Do returned instead of panicking")
	}()

	<-leaderIn // leader is mid-compute; these Do calls must coalesce
	const followers = 8
	errs := make([]error, followers)
	var fwg sync.WaitGroup
	for i := 0; i < followers; i++ {
		fwg.Add(1)
		go func(i int) {
			defer fwg.Done()
			_, _, errs[i] = c.Do(context.Background(), "k", func() (int, error) {
				t.Error("follower compute ran; panic must propagate, not retry")
				return 0, nil
			})
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	settle := time.After(5 * time.Second)
	done := make(chan struct{})
	go func() { fwg.Wait(); close(done) }()
	select {
	case <-done:
	case <-settle:
		t.Fatal("followers still blocked 5s after the leader panicked (the wedge)")
	}

	for i, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("follower %d err = %v, want *PanicError", i, err)
		}
		if pe.Value != "boom" {
			t.Fatalf("follower %d panic value = %v, want boom", i, pe.Value)
		}
	}
	if _, ok := c.Get("k"); ok {
		t.Error("panicking compute committed an entry")
	}
	// The key must not be poisoned: a fresh caller computes normally.
	v, hit, err := c.Do(context.Background(), "k", func() (int, error) { return 42, nil })
	if err != nil || hit || v != 42 {
		t.Fatalf("post-panic Do = %v %v %v, want fresh 42", v, hit, err)
	}
	st := c.Stats()
	if st.Panics != 1 {
		t.Errorf("stats.Panics = %d, want 1", st.Panics)
	}
	if st.Errors != 1 {
		t.Errorf("stats.Errors = %d, want 1 (the panicked compute)", st.Errors)
	}
}
