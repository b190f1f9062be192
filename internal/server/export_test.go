package server

// The serving limits, for the external tests that fill them.
const (
	PerConnInFlight         = perConnInFlight
	GlobalInFlightPerWorker = globalInFlightPerWorker
	DedupWindow             = dedupWindow
)
