// Package sim is a fixture stub of the simulator package: it declares the
// channel description, Config, which alone may hold the channel types.
package sim

import (
	"sinrconn/internal/faults"
	"sinrconn/internal/sinr"
)

// Pool stands in for the shared worker pool.
type Pool struct{ workers int }

// Observer stands in for the per-slot hook.
type Observer func(slot int)

// Config is the one channel description: its channel fields are exempt.
type Config struct {
	Pool     *Pool
	Observer Observer
	Injector faults.Injector
	Far      *sinr.QuadTree
	DropProb float64
}
