package diskstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
	"hidb/internal/index"
	"hidb/internal/simrand"
)

// buildTier writes a tiered dataset's store file and returns its path.
func buildTier(t *testing.T, p datagen.Pattern, tier datagen.Tier, seed uint64, bands int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.hidb")
	if err := Build(path, datagen.TierSchema(tier), datagen.TieredSeq(p, tier, seed), BuildOptions{Bands: bands}); err != nil {
		t.Fatal(err)
	}
	return path
}

func openStore(t *testing.T, path string, opts OpenOptions) *Store {
	t.Helper()
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// tierQuery mirrors the planner oracle's random query generator: arities
// 0–6, occasionally aiming at the pathological needle conjunction.
func tierQuery(sch *dataspace.Schema, rng *simrand.RNG, n int) dataspace.Query {
	q := dataspace.UniverseQuery(sch)
	needle := rng.Bool(0.25)
	for i := 0; i < 3; i++ {
		if needle {
			q = q.WithValue(i, datagen.PathoNeedle)
		} else if rng.Bool(0.5) {
			q = q.WithValue(i, rng.IntRange(1, 32))
		}
	}
	if rng.Bool(0.3) {
		q = q.WithValue(3, rng.IntRange(1, 1024))
	}
	if rng.Bool(0.4) {
		lo := rng.IntRange(0, int64(n-1))
		q = q.WithRange(4, lo, lo+rng.IntRange(0, int64(n/4)))
	}
	if rng.Bool(0.3) {
		lo := rng.IntRange(0, 1<<20)
		q = q.WithRange(5, lo, lo+rng.IntRange(0, 1<<18))
	}
	return q
}

func sameTuples(a, b []dataspace.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestDiskMatchesMemAcrossPatterns is the cross-engine equivalence oracle:
// on every generator pattern, for random queries of every arity and limit,
// the disk engine must return bit-identical rank-ordered tuples and counts
// to the in-memory engine — and, band for shard, make the same plan
// choices (the persisted sample and the rebuilt bitmaps force the same
// cost-model inputs).
func TestDiskMatchesMemAcrossPatterns(t *testing.T) {
	const bands = 4
	for _, p := range datagen.Patterns {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			ds := datagen.Tiered(p, datagen.Tier10K, 11)
			mem, err := index.NewSharded(ds.Schema, ds.Tuples, bands)
			if err != nil {
				t.Fatal(err)
			}
			disk := openStore(t, buildTier(t, p, datagen.Tier10K, 11, bands), OpenOptions{Verify: true})
			if disk.Bands() != bands {
				t.Fatalf("Bands() = %d, want %d", disk.Bands(), bands)
			}
			if disk.Size() != mem.Size() {
				t.Fatalf("Size() = %d, want %d", disk.Size(), mem.Size())
			}
			// Queries run against the disk schema (decoded from the
			// footer) and the mem schema; predicates are re-derived per
			// store so both engines validate against their own schema.
			rng := simrand.New(uint64(p) + 707)
			n := ds.N()
			for trial := 0; trial < 150; trial++ {
				qm := tierQuery(ds.Schema, rng, n)
				qd, err := remapQuery(disk.Schema(), qm)
				if err != nil {
					t.Fatal(err)
				}
				for _, limit := range []int{0, 9, 64} {
					got := disk.Select(qd, limit)
					want := mem.Select(qm, limit)
					if !sameTuples(got, want) {
						t.Fatalf("trial %d limit %d: disk returned %d tuples, mem %d (query %v)", trial, limit, len(got), len(want), qm)
					}
				}
				if got, want := disk.Count(qd), mem.Count(qm); got != want {
					t.Fatalf("trial %d: Count = %d, want %d", trial, got, want)
				}
			}
			dps, mps := disk.PlanStats(), mem.PlanStats()
			for path, c := range mps.Paths {
				if dps.Paths[path] != c {
					t.Fatalf("plan choices diverged on %s: disk %d, mem %d (disk %v, mem %v)", path, dps.Paths[path], c, dps.Paths, mps.Paths)
				}
			}
			if len(dps.Paths) != len(mps.Paths) {
				t.Fatalf("plan choices diverged: disk %v, mem %v", dps.Paths, mps.Paths)
			}
		})
	}
}

// remapQuery rebuilds a query over another schema instance with the same
// attributes (the disk store's footer-decoded schema).
func remapQuery(sch *dataspace.Schema, q dataspace.Query) (dataspace.Query, error) {
	out := dataspace.UniverseQuery(sch)
	for i := 0; i < sch.Dims(); i++ {
		p := q.Pred(i)
		if sch.Attr(i).Kind == dataspace.Categorical {
			if !p.Wild {
				out = out.WithValue(i, p.Value)
			}
		} else if p.Lo != dataspace.NegInf || p.Hi != dataspace.PosInf {
			out = out.WithRange(i, p.Lo, p.Hi)
		}
	}
	return out, nil
}

// TestDiskSelectBatchMatchesSequential pins the batch contract on the disk
// engine: SelectBatch answers exactly as sequential Selects, and a
// cancelled ctx yields a prefix.
func TestDiskSelectBatchMatchesSequential(t *testing.T) {
	disk := openStore(t, buildTier(t, datagen.PatternRandom, datagen.Tier10K, 3, 4), OpenOptions{})
	rng := simrand.New(99)
	qs := make([]dataspace.Query, 64)
	for i := range qs {
		qs[i] = tierQuery(disk.Schema(), rng, disk.Size())
	}
	got := disk.SelectBatch(context.Background(), qs, 9)
	if len(got) != len(qs) {
		t.Fatalf("answered %d of %d", len(got), len(qs))
	}
	for i, q := range qs {
		if !sameTuples(got[i], disk.Select(q, 9)) {
			t.Fatalf("batch result %d differs from sequential Select", i)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res := disk.SelectBatch(ctx, qs, 9); len(res) != 0 {
		t.Fatalf("cancelled batch answered %d queries, want 0", len(res))
	}
}

// TestEmptyRelationBothEngines is the shared table test pinning the
// unified empty-relation path: every engine — single store, sharded store
// with an over-asking shard count, and a disk store built from zero
// tuples — serves the empty relation through one (empty) partition.
func TestEmptyRelationBothEngines(t *testing.T) {
	sch := datagen.TierSchema(datagen.Tier10K)
	single, err := index.New(sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := index.NewSharded(sch, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := sharded.NumShards(); got != 1 {
		t.Fatalf("empty sharded store built %d shards, want 1", got)
	}
	path := filepath.Join(t.TempDir(), "empty.hidb")
	if err := Build(path, sch, func(func(dataspace.Tuple) bool) {}, BuildOptions{Bands: 8}); err != nil {
		t.Fatal(err)
	}
	disk := openStore(t, path, OpenOptions{Verify: true})
	if got := disk.Bands(); got != 1 {
		t.Fatalf("empty disk store built %d bands, want 1", got)
	}
	for name, eng := range map[string]index.Engine{"store": single, "sharded": sharded, "disk": disk} {
		q := dataspace.UniverseQuery(eng.Schema()).WithValue(0, 1)
		if got := eng.Size(); got != 0 {
			t.Errorf("%s: Size = %d, want 0", name, got)
		}
		if got := eng.Select(q, 10); len(got) != 0 {
			t.Errorf("%s: Select returned %d tuples, want 0", name, len(got))
		}
		if got := eng.Select(dataspace.UniverseQuery(eng.Schema()), 0); len(got) != 0 {
			t.Errorf("%s: universe Select returned %d tuples, want 0", name, len(got))
		}
		if got := eng.Count(q); got != 0 {
			t.Errorf("%s: Count = %d, want 0", name, got)
		}
		if got := eng.All(); len(got) != 0 {
			t.Errorf("%s: All returned %d tuples, want 0", name, len(got))
		}
		if got := eng.SelectBatch(context.Background(), []dataspace.Query{q, q}, 5); len(got) != 2 || len(got[0]) != 0 || len(got[1]) != 0 {
			t.Errorf("%s: batch over empty store answered %v", name, got)
		}
	}
}

// TestShardClampUnified pins the satellite bugfix across sizes: the shard
// count is clamped to max(n, 1) for every n, through the same code path.
func TestShardClampUnified(t *testing.T) {
	for _, tc := range []struct {
		n, shards, want int
	}{
		{0, 1, 1}, {0, 8, 1}, {2, 8, 2}, {8, 8, 8}, {100, 8, 8},
	} {
		ds := datagen.Tiered(datagen.PatternSequential, datagen.Tier10K, 1)
		sh, err := index.NewSharded(ds.Schema, ds.Tuples[:tc.n], tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		if got := sh.NumShards(); got != tc.want {
			t.Errorf("n=%d shards=%d: built %d shards, want %d", tc.n, tc.shards, got, tc.want)
		}
	}
}

// TestBuildDeterministic pins byte-identical rebuilds: the format has no
// hidden nondeterminism (map iteration, timestamps), so the same dataset
// always produces the same file.
func TestBuildDeterministic(t *testing.T) {
	p1 := buildTier(t, datagen.PatternRealistic, datagen.Tier10K, 5, 3)
	p2 := buildTier(t, datagen.PatternRealistic, datagen.Tier10K, 5, 3)
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("two builds of the same dataset produced different bytes")
	}
}

// TestDiskSelectAllocs pins the disk engine's allocation contract: a
// Select the first band decides costs the result slice and the slab its
// rows are copied into — two allocations on every access path, whatever
// the result size — with the rank buffers recycled through the per-band
// scratch pools.
func TestDiskSelectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items nondeterministically under -race")
	}
	disk := openStore(t, buildTier(t, datagen.PatternPathological, datagen.Tier10K, 67, 1), OpenOptions{})
	uni := dataspace.UniverseQuery(disk.Schema())
	needle := uni.
		WithValue(0, datagen.PathoNeedle).
		WithValue(1, datagen.PathoNeedle).
		WithValue(2, datagen.PathoNeedle)
	for _, tc := range []struct {
		path string
		q    dataspace.Query
	}{
		{"scan", uni},
		{"posting", uni.WithValue(3, 7)},
		{"range", uni.WithRange(4, 100, 1500)},
		{"bitmap", needle},
	} {
		before := disk.PlanStats().Paths[tc.path]
		if got := disk.Select(tc.q, 999); len(got) == 0 {
			t.Fatalf("%s: Select returned no tuples", tc.path)
		}
		if disk.PlanStats().Paths[tc.path] != before+1 {
			t.Fatalf("%s: query ran another access path: %v", tc.path, disk.PlanStats().Paths)
		}
		if allocs := testing.AllocsPerRun(100, func() { disk.Select(tc.q, 999) }); allocs > 2 {
			t.Errorf("%s: %.1f allocs per Select, want <= 2", tc.path, allocs)
		}
	}
	if es := disk.EngineStats(); es.Kind != "disk" {
		t.Fatalf("disk EngineStats = %+v", es)
	}
	// The in-memory engines identify themselves too.
	ds := datagen.Tiered(datagen.PatternSequential, datagen.Tier10K, 7)
	mem, err := index.New(ds.Schema, ds.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	if es := mem.EngineStats(); es.Kind != "mem" {
		t.Fatalf("mem EngineStats = %+v", es)
	}
}

// TestDiskTuplesAreCopies guards the copy-out contract: the disk engine's
// tuples are heap copies, never views of the read-only mapping (a write
// through such a view would fault). It overwrites every tuple that Select
// and SelectBatch return, then re-runs the queries: the answers must still
// match the in-memory engine's.
func TestDiskTuplesAreCopies(t *testing.T) {
	const bands = 4
	ds := datagen.Tiered(datagen.PatternRealistic, datagen.Tier10K, 19)
	mem, err := index.NewSharded(ds.Schema, ds.Tuples, bands)
	if err != nil {
		t.Fatal(err)
	}
	disk := openStore(t, buildTier(t, datagen.PatternRealistic, datagen.Tier10K, 19, bands), OpenOptions{})
	rng := simrand.New(23)
	qm := make([]dataspace.Query, 48)
	qd := make([]dataspace.Query, len(qm))
	for i := range qm {
		qm[i] = tierQuery(ds.Schema, rng, ds.N())
		if qd[i], err = remapQuery(disk.Schema(), qm[i]); err != nil {
			t.Fatal(err)
		}
	}
	clobber := func(res []dataspace.Tuple) {
		for _, tu := range res {
			for i := range tu {
				tu[i] = -1
			}
		}
	}
	for _, q := range qd {
		clobber(disk.Select(q, 64))
	}
	for _, res := range disk.SelectBatch(context.Background(), qd, 64) {
		clobber(res)
	}
	for i := range qd {
		if got, want := disk.Select(qd[i], 64), mem.Select(qm[i], 64); !sameTuples(got, want) {
			t.Fatalf("query %d after overwriting earlier answers: disk returned %d tuples, mem %d", i, len(got), len(want))
		}
	}
	for i, got := range disk.SelectBatch(context.Background(), qd, 64) {
		if want := mem.Select(qm[i], 64); !sameTuples(got, want) {
			t.Fatalf("batch query %d after overwriting earlier answers: disk returned %d tuples, mem %d", i, len(got), len(want))
		}
	}
}

// TestOpenCorruptionSweep is the torn-file/bit-flip sweep over the footer
// region: every damaged variant must quarantine the file (path+".corrupt")
// and return a typed *CorruptionError, never a panic or a silent success.
func TestOpenCorruptionSweep(t *testing.T) {
	pristine := buildTier(t, datagen.PatternRandom, datagen.Tier10K, 13, 2)
	orig, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}
	size := len(orig)
	// Locate the footer frame via the trailer so the sweep aims at it.
	footOff := int(orig[size-24])<<56 | int(orig[size-23])<<48 | int(orig[size-22])<<40 | int(orig[size-21])<<32 |
		int(orig[size-20])<<24 | int(orig[size-19])<<16 | int(orig[size-18])<<8 | int(orig[size-17])
	cases := map[string]func([]byte) []byte{
		"truncated-mid-footer":  func(b []byte) []byte { return b[:footOff+10] },
		"truncated-trailer":     func(b []byte) []byte { return b[:size-8] },
		"truncated-to-header":   func(b []byte) []byte { return b[:headerLen] },
		"empty":                 func(b []byte) []byte { return nil },
		"bad-magic":             func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bitflip-footer-length": func(b []byte) []byte { b[footOff+1] ^= 0x40; return b },
		"bitflip-footer-body":   func(b []byte) []byte { b[footOff+20] ^= 0x01; return b },
		"bitflip-footer-crc":    func(b []byte) []byte { b[size-28] ^= 0x10; return b },
		"bitflip-trailer-off":   func(b []byte) []byte { b[size-22] ^= 0x02; return b },
		"garbage-trailer-magic": func(b []byte) []byte { copy(b[size-8:], "XXXXXXXX"); return b },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "store.hidb")
			if err := os.WriteFile(path, mutate(append([]byte(nil), orig...)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(path, OpenOptions{})
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("Open returned %v, want *CorruptionError", err)
			}
			if ce.Path != path {
				t.Fatalf("CorruptionError.Path = %q, want %q", ce.Path, path)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("damaged file was not quarantined: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged file still present at %s", path)
			}
		})
	}
}

// TestSegmentRotDetected flips one bit inside a segment payload: the footer
// still validates, so a plain Open serves the file — but Open with Verify
// (and the Verify method) must catch the rot via the segment CRCs.
func TestSegmentRotDetected(t *testing.T) {
	pristine := buildTier(t, datagen.PatternRandom, datagen.Tier10K, 17, 2)
	orig, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}
	rotted := append([]byte(nil), orig...)
	rotted[headerLen+100] ^= 0x04 // inside the first column segment
	dir := t.TempDir()
	path := filepath.Join(dir, "store.hidb")
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path, OpenOptions{Verify: true})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("verifying Open returned %v, want *CorruptionError", err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("rotted file was not quarantined: %v", err)
	}

	// The Verify method reports rot on an already-open store without
	// quarantining it.
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatalf("non-verifying Open rejected segment rot the footer cannot see: %v", err)
	}
	defer s.Close()
	if err := s.Verify(); !errors.As(err, &ce) {
		t.Fatalf("Verify returned %v, want *CorruptionError", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Verify must not quarantine: %v", err)
	}
}

// TestBuilderValidatesTuples pins Add-time schema validation.
func TestBuilderValidatesTuples(t *testing.T) {
	sch := datagen.TierSchema(datagen.Tier10K)
	b, err := NewBuilder(filepath.Join(t.TempDir(), "x.hidb"), sch, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Add(dataspace.Tuple{1, 1}); err == nil {
		t.Fatal("Add accepted a tuple of the wrong arity")
	}
}

// TestOpenMissingFile pins that a missing store is an os error, not a
// corruption report.
func TestOpenMissingFile(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "nope.hidb"), OpenOptions{})
	if !os.IsNotExist(err) {
		t.Fatalf("Open of a missing file returned %v", err)
	}
	var ce *CorruptionError
	if errors.As(err, &ce) {
		t.Fatal("missing file misreported as corruption")
	}
}
