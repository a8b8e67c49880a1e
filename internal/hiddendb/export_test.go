package hiddendb

// The fixtures of the in-package tests, for the external ones.
var (
	NewTestSchema   = testSchema
	NewTestBag      = testBag
	NewBatchQueries = batchQueries
	SameResult      = sameResult
)

// TripCounter counts the batches that reach the server it wraps.
type TripCounter = tripCounter

// FlakyAttempts returns how many query attempts f has seen (served or
// faulted).
func FlakyAttempts(f *Flaky) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts
}

// FlakyInjected returns how many faults f has injected so far.
func FlakyInjected(f *Flaky) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}
