// Package wallclock exercises the no-wallclock rule.
package wallclock

import (
	"math/rand"
	"time"
)

// Bad reads the wall clock and the global rand source.
func Bad() (time.Time, float64, time.Duration) {
	now := time.Now()          // want no-wallclock
	v := rand.Float64()        // want no-wallclock
	elapsed := time.Since(now) // want no-wallclock
	return now, v, elapsed
}

// Good uses explicit seeds and virtual durations only.
func Good() (float64, time.Duration) {
	rng := rand.New(rand.NewSource(42))
	return rng.Float64(), 3 * time.Second
}

// Allowed carries a justification.
func Allowed() time.Time {
	return time.Now() //lint:allow no-wallclock — logging outside the simulation
}
