// Fixture: only functions named ReplayCommands are in scope, in any
// package.
package replay

import (
	"math/rand"
	"sort"
	"time"
)

// Command is a fixture log entry.
type Command struct{ TS uint64 }

// ReplayCommands is in scope wherever it is declared.
func ReplayCommands(cmds []Command) error {
	deadline := time.Now() // want `time.Now is nondeterministic`
	_ = deadline
	for _, c := range cmds { // slice range: allowed
		_ = c
	}
	return nil
}

// Log carries the method form of the entry point.
type Log struct{ byTS map[uint64]Command }

// ReplayCommands is in scope as a method too.
func (l *Log) ReplayCommands() error {
	start := time.Now()      // want `time.Now is nondeterministic`
	_ = time.Since(start)    // want `time.Since is nondeterministic`
	_ = rand.Intn(8)         // want `math/rand.Intn is nondeterministic`
	for ts := range l.byTS { // want `map iteration order is nondeterministic`
		_ = ts
	}
	// Sorted consumption: the order-insensitive key collection carries
	// the sanctioned annotation (true negative via suppression).
	keys := make([]uint64, 0, len(l.byTS))
	for ts := range l.byTS { //thedb:nolint:nondet key collection is order-insensitive; consumption below is sorted
		keys = append(keys, ts)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	_ = time.Millisecond // the time package without the clock: allowed
	return nil
}

// harvest is an ordinary function: wall-clock reads are fine here
// (true negative).
func harvest() time.Time {
	return time.Now()
}
