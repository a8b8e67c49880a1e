package index

import (
	"context"
	"sync"
	"testing"

	"hidb/internal/dataspace"
	"hidb/internal/simrand"
)

// testSharded builds a Sharded store over the same tuples as testStore with
// the same seed, so the two can be compared result for result.
func testSharded(t *testing.T, n int, seed uint64, shards int) *Sharded {
	t.Helper()
	ref := testStore(t, n, seed)
	s, err := NewSharded(ref.Schema(), all(ref), shards)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedSelectMatchesStore is the sharding correctness property: for
// any shard count, Select over the sharded store is bit-identical to the
// single-Store engine — same tuples, same order, same overflow signalling —
// including at limit n, where Select walks every shard.
func TestShardedSelectMatchesStore(t *testing.T) {
	const n, seed = 4000, 7
	ref := testStore(t, n, seed)
	for _, shards := range []int{1, 2, 3, 8, 17} {
		sh := testSharded(t, n, seed, shards)
		if sh.NumShards() != shards {
			t.Fatalf("NumShards() = %d, want %d", sh.NumShards(), shards)
		}
		rng := simrand.New(seed + uint64(shards))
		for trial := 0; trial < 200; trial++ {
			q := randomQuery(ref.Schema(), rng)
			for _, limit := range []int{0, 1, 10, 100, n} {
				got := sh.Select(q, limit)
				want := ref.Select(q, limit)
				if len(got) != len(want) {
					t.Fatalf("shards=%d trial %d limit %d: got %d tuples, want %d (query %s)",
						shards, trial, limit, len(got), len(want), q)
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("shards=%d trial %d limit %d: tuple %d differs: %v vs %v",
							shards, trial, limit, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestShardedSelectBatchMatchesSelect pins the batch contract at the store
// layer: SelectBatch result i equals Select(qs[i], limit) exactly, for both
// engines.
func TestShardedSelectBatchMatchesSelect(t *testing.T) {
	const n, seed = 3000, 11
	ref := testStore(t, n, seed)
	sh := testSharded(t, n, seed, 5)
	rng := simrand.New(13)
	for trial := 0; trial < 20; trial++ {
		qs := make([]dataspace.Query, 32)
		for i := range qs {
			qs[i] = randomQuery(ref.Schema(), rng)
		}
		for _, eng := range []Engine{ref, sh} {
			got := eng.SelectBatch(context.Background(), qs, 20)
			if len(got) != len(qs) {
				t.Fatalf("batch returned %d results for %d queries", len(got), len(qs))
			}
			for i, q := range qs {
				want := ref.Select(q, 20)
				if len(got[i]) != len(want) {
					t.Fatalf("trial %d query %d: batch %d tuples, single %d", trial, i, len(got[i]), len(want))
				}
				for j := range want {
					if !got[i][j].Equal(want[j]) {
						t.Fatalf("trial %d query %d tuple %d differs", trial, i, j)
					}
				}
			}
		}
	}
}

// TestShardedBatchConcurrent hammers one sharded store from many
// goroutines; under -race this verifies the per-shard scratch pools and the
// fan-out share no unsynchronized state.
func TestShardedBatchConcurrent(t *testing.T) {
	sh := testSharded(t, 2000, 17, 4)
	ref := testStore(t, 2000, 17)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := simrand.New(100 + uint64(g))
			for trial := 0; trial < 30; trial++ {
				qs := make([]dataspace.Query, 16)
				for i := range qs {
					qs[i] = randomQuery(sh.Schema(), rng)
				}
				got := sh.SelectBatch(context.Background(), qs, 10)
				for i, q := range qs {
					want := ref.Select(q, 10)
					if len(got[i]) != len(want) {
						t.Errorf("goroutine %d: result %d has %d tuples, want %d", g, i, len(got[i]), len(want))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestShardedEdgeCases(t *testing.T) {
	sch := testSchema(t)
	if _, err := NewSharded(sch, nil, 0); err == nil {
		t.Error("shard count 0 accepted")
	}
	if _, err := NewPartitioned(nil); err == nil {
		t.Error("NewPartitioned accepted no parts")
	}
	a, err := New(sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(dataspace.MustSchema([]dataspace.Attribute{{Name: "C1", Kind: dataspace.Categorical, DomainSize: 5}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartitioned([]*Store{a, b}); err == nil {
		t.Error("NewPartitioned accepted parts with different schemas")
	}
	// Empty store: one empty shard, empty answers.
	s, err := NewSharded(sch, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 1 {
		t.Errorf("empty store has %d shards, want 1", s.NumShards())
	}
	if got := s.Select(dataspace.UniverseQuery(sch), 10); len(got) != 0 {
		t.Errorf("empty store answered %d tuples", len(got))
	}
	// More shards than tuples: clamped so every shard is non-empty.
	tuples := []dataspace.Tuple{{1, 1, 5, 5}, {2, 2, 6, 6}, {3, 3, 7, 7}}
	s, err = NewSharded(sch, tuples, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 3 {
		t.Errorf("3-tuple store has %d shards, want 3", s.NumShards())
	}
	if got := s.Select(dataspace.UniverseQuery(sch), 10); len(got) != 3 {
		t.Errorf("clamped store answered %d tuples, want 3", len(got))
	}
	if s.Size() != 3 {
		t.Errorf("Size = %d, want 3", s.Size())
	}
}
