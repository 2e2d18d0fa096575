// Package exports is the fixture of the production-exports gate: one export
// production calls, one only its test calls, one interface method and one
// allowlisted seam. The gate must flag Unused and nothing else.
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
