package journal_test

import (
	"context"
	"math"
	"testing"

	"hidb/internal/core"
	"hidb/internal/datagen"
	"hidb/internal/hiddendb"
	"hidb/internal/journal"
)

// missAllocs is what a journal miss costs through a fresh session stack,
// journal → counter → Local, to one decimal: the miss's key, the journal's
// entry, the engine's result slice, the one-query batch the journal
// forwards and the Local's one-result answer to it, and the amortized
// growth of the journal's maps and log.
const missAllocs = 6.2

// TestMissAllocations pins the allocations of the journal's miss path,
// beside TestReplayAllocatesNothing for its hit path. The queries are a
// hybrid crawl's journal (YahooLike, k=256), each asked once through a
// fresh stack, so every one is a paid miss.
func TestMissAllocations(t *testing.T) {
	if journal.RaceEnabled {
		t.Skip("sync.Pool drops items nondeterministically under -race")
	}
	ds := datagen.YahooLike(11)
	local, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 256, 42)
	if err != nil {
		t.Fatal(err)
	}
	crawl := journal.New(ds.Schema, local.K())
	srv, err := journal.Wrap(local, crawl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (core.Hybrid{}).Crawl(context.Background(), srv, nil); err != nil {
		t.Fatal(err)
	}
	qs := crawl.Queries()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(3, func() {
		counting := hiddendb.NewCounting(local)
		stack, err := journal.Wrap(counting, journal.New(ds.Schema, local.K()))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			if _, err := stack.Answer(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		if counting.Queries() != len(qs) {
			t.Fatalf("paid %d of %d misses", counting.Queries(), len(qs))
		}
	})
	perMiss := allocs / float64(len(qs))
	if math.Round(perMiss*10)/10 > missAllocs {
		t.Errorf("%d misses cost %v allocs, %.2f per miss; want at most %.1f", len(qs), allocs, perMiss, missAllocs)
	}
}
