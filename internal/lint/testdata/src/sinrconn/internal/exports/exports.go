// Package exports is the fixture of the production-exports gate: one export
// production calls, one only its test calls, one interface method and one
// allowlisted seam. The gate must flag Unused and nothing else.
//
// It is also the fixture of the config-field gate: Knobs has a field for
// each kind of write the gate counts, one only its own method writes, one
// only the test writes, one allowlisted and one tagged. The gate must flag
// Defaulted and TestOnly and nothing else.
package exports

import "fmt"

// Used is called by the fixture command.
func Used() int { return 1 }

// Unused is called only by this package's test, which does not count.
func Unused() int { return 2 }

// Allowed is uncalled but carries an allowlist row.
func Allowed() int { return 3 }

// Widget is a value the fixture command prints.
type Widget struct{ N int }

// String is reached through fmt.Stringer, never by name.
func (w Widget) String() string { return fmt.Sprint("widget ", w.N) }

// Knobs is a config struct the fixture command fills.
type Knobs struct {
	Keyed     int // keyed composite literal
	Assigned  int // assignment
	Bumped    int // increment
	Addressed int // address taken
	Defaulted int // written only by Knobs.defaults: flagged
	TestOnly  int // written only by the test: flagged
	Allowed   int // never written, allowlisted
	Tagged    int `json:"tagged"` // filled by encoding, exempt
}

func (k *Knobs) defaults() {
	if k.Defaulted == 0 {
		k.Defaulted = 8
	}
}

// Fill applies defaults and returns the sum of every knob.
func (k *Knobs) Fill() int {
	k.defaults()
	return k.Keyed + k.Assigned + k.Bumped + k.Addressed + k.Defaulted + k.TestOnly + k.Allowed + k.Tagged
}

// Pair is a struct the fixture command builds positionally.
type Pair struct{ A, B int }
