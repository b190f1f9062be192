//go:build race

package ycsb

// The race runtime turns the tiny allocator off, so 8-byte objects no
// longer share 16-byte blocks and TestLoadedRowAllocations' byte count
// does not hold there.
func init() { raceEnabled = true }
