// Package construct is the fixture of the channel-config gate: Config holds
// one field of each channel type, directly or through a pointer, next to
// the sanctioned sim.Config, an allowlisted copy and fields the gate must
// leave alone. The gate must flag Pool, Observer, Injector and Far and
// nothing else.
package construct

import (
	"sinrconn/internal/faults"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
)

// Config is a construction config that copies the channel.
type Config struct {
	Channel  sim.Config      // the one description: allowed
	Pool     *sim.Pool       // flagged
	Observer sim.Observer    // flagged
	Injector faults.Injector // flagged
	Far      *sinr.QuadTree  // flagged
	Allowed  faults.Injector // allowlisted
	Seed     int64           // not a channel type
	pool     *sim.Pool       // unexported field: exempt
}

// settings is unexported: its fields are exempt.
type settings struct {
	Pool *sim.Pool
}

// Workers reads the unexported fields so they are used.
func (c Config) Workers() int {
	var s settings
	if c.pool == nil && s.Pool == nil {
		return 0
	}
	return 1
}
