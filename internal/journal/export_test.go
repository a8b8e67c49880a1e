package journal

import (
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

// NewTestDataset exposes testDataset to the external crawl tests.
var NewTestDataset = testDataset

// RaceEnabled exposes raceEnabled to the external tests.
const RaceEnabled = raceEnabled

// Queries returns the recorded queries in the order they were paid.
func (j *Journal) Queries() []dataspace.Query {
	j.mu.RLock()
	defer j.mu.RUnlock()
	qs := make([]dataspace.Query, len(j.log))
	for i, e := range j.log {
		qs[i] = e.q
	}
	return qs
}

// lookup returns the recorded response for q, if any. A hit allocates
// nothing.
func (j *Journal) lookup(q dataspace.Query) (hiddendb.Result, bool) {
	res, _, ok := j.answers.Probe(q.AppendKey)
	return res, ok
}
