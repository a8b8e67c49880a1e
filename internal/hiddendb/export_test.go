package hiddendb

// The fixtures of the in-package tests, for the external ones.
var (
	NewTestSchema   = testSchema
	NewTestBag      = testBag
	NewBatchQueries = batchQueries
	SameResult      = sameResult
)
