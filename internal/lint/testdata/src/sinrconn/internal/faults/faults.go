// Package faults is the dual-analyzer fixture: its import path sits in
// the replay-deterministic set (an injection plan must fire on the same
// visits every run) AND it is a library package under ctxdiscipline, so
// one file pins findings from both analyzers at once.
package faults

import (
	"context"
	"math/rand"
	"sort"
	"time"
)

// BadFire commits the determinism sins an injector must never commit:
// deciding from the wall clock, the process-global RNG, or map order.
func BadFire(rates map[string]float64) (bool, int) {
	armed := time.Now().UnixNano()%2 == 0 // want `wall-clock read time.Now`
	roll := rand.Float64()                // want `rand.Float64 draws from the process-global source`
	n := 0
	for site := range rates { // want `map iteration order is random`
		n += len(site)
	}
	return armed, int(roll) + n
}

// BadInject mints its own root context and hides the ctx parameter in
// the middle of the signature — both ctxdiscipline findings.
func BadInject(site string, ctx context.Context, delay time.Duration) error { // want `BadInject: context.Context must be the first parameter`
	waitCtx, cancel := context.WithTimeout(context.Background(), delay) // want `context.Background\(\) in a library package`
	defer cancel()
	_ = site
	<-waitCtx.Done()
	return ctx.Err()
}

// GoodFire shows the sanctioned forms: a caller-seeded source, duration
// constants, and the collect-then-sort idiom for the site map.
func GoodFire(ctx context.Context, seed int64, rates map[string]float64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]string, 0, len(rates))
	for site := range rates {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	_ = rng.Uint64()
	return sites, ctx.Err()
}

// Injector stands in for the fault-injection hook, a channel type of the
// channel-config gate fixture.
type Injector interface {
	Fire(site string) bool
}
