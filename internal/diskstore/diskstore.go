// Package diskstore implements the disk-resident hidden-database engine: a
// second index.Engine whose relation, posting lists and sorted segments
// live in one immutable, checksummed columnar file served through mmap —
// larger-than-RAM stores answer the paper's top-k queries while touching
// only the disk pages a query actually needs.
//
// # File layout and construction
//
// A store file is written once by the streaming Builder (builder.go) and
// never modified: per-attribute int64 column segments in descending
// priority order, per-band posting-list and sorted-segment indexes, the
// relation's selectivity sample, and a CRC-framed JSON footer that
// describes them all (format.go). The builder consumes tuples one at a
// time — datagen.TieredSeq streams a 10M-tuple tier straight into a file —
// and finalizes crash-safely (temp file, fsync, atomic rename), so a crash
// mid-build never leaves a torn store behind the path.
//
// # Query evaluation
//
// Open maps the file read-only and assembles one index.Store per priority
// band from artifacts aliasing the mapped pages (index.NewFromArtifacts):
// the per-query cost-model planner and all five access paths run
// unchanged against on-disk postings. Three properties make the disk
// engine's behaviour bit-identical to the in-memory engine over the same
// relation:
//
//   - band boundaries use index.NewSharded's exact i*n/bands split, and
//     Select/SelectBatch/Count replicate Sharded's priority-ordered
//     early-exit walk and fan-out gates;
//   - the selectivity sample persisted in the footer is the same
//     deterministic stride sample buildSelStats draws, so the cost model
//     sees identical statistics (index.NewSelStats);
//   - bitmap indexes are rebuilt at Open from the on-disk posting lists
//     under the same size/domain gates the in-memory constructor applies.
//
// Planning and filtering read the mapped columns in place, and so does
// result emission: each band's Select collects its result ranks, then
// copies each rank's d words out of the mapped columns into one
// exact-size heap slab per call (index.Store's rows). Returned tuples are
// therefore fresh copies that never alias the read-only mapping — callers
// may keep or write them, and they outlive Close. The engine keeps no
// cache of its own: the OS page cache holds the hot pages.
//
// # Integrity
//
// Every byte a reader trusts is checksummed. Open validates the footer
// frame, the segment directory, and the posting-index structure; Verify
// (or OpenOptions.Verify) re-checksums every segment. Damage is never
// served: the file is quarantined — renamed to path+".corrupt", preserving
// the bytes for forensics — and a typed *CorruptionError reports what
// failed and where, mirroring journal.CorruptionError's contract.
package diskstore

import (
	"context"
	"hash/crc32"
	"os"
	"runtime"
	"sync"

	"hidb/internal/dataspace"
	"hidb/internal/index"
	"hidb/internal/wire"
)

// OpenOptions configures Open.
type OpenOptions struct {
	// Verify makes Open checksum every segment before serving (reads the
	// whole file once). Without it only the footer and the index
	// structure are validated; call Verify explicitly for a full audit.
	Verify bool
}

// Store is the disk-resident engine: an opened, immutable store file.
// All methods are safe for concurrent use until Close.
type Store struct {
	path   string
	schema *dataspace.Schema
	n      int
	bands  []*index.Store
	segs   []segMeta
	data   []byte
	unmap  func() error

	closeOnce sync.Once
	closeErr  error
}

var _ index.Engine = (*Store)(nil)

// Open maps the store file at path and assembles the engine. A file that
// fails validation — torn, truncated, bit-flipped — is quarantined (renamed
// to path+".corrupt") and a *CorruptionError is returned; other errors
// (missing file, permission) pass through untouched.
func Open(path string, opts OpenOptions) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	data, unmap, err := mapFile(f, fi.Size())
	f.Close()
	if err != nil {
		return nil, err
	}
	s, cerr := assemble(path, data)
	if cerr == nil && opts.Verify {
		cerr = verifySegments(data, s.segs)
	}
	if cerr != nil {
		unmap()
		cerr.Path = path
		os.Rename(path, path+".corrupt")
		return nil, cerr
	}
	s.unmap = unmap
	return s, nil
}

// assemble validates the footer and builds the per-band stores over views
// of the mapped bytes.
func assemble(path string, data []byte) (*Store, *CorruptionError) {
	ft, err := decodeFooter(data)
	if err != nil {
		return nil, err.(*CorruptionError)
	}
	schema, _, serr := wire.DecodeSchema(wire.SchemaMsg{Attributes: ft.Attrs, K: 1})
	if serr != nil {
		return nil, corrupt(-1, "footer schema: %w", serr)
	}
	d := schema.Dims()
	n := ft.N
	if sampled, _ := index.SampleSizeFor(n); len(ft.Sample) != sampled {
		return nil, corrupt(-1, "footer sample holds %d rows, want %d for n=%d", len(ft.Sample), sampled, n)
	}
	rows := make([]dataspace.Tuple, len(ft.Sample))
	for j, r := range ft.Sample {
		rows[j] = dataspace.Tuple(r)
	}
	stats := index.NewSelStats(schema, n, rows)

	type segKey struct {
		kind       string
		attr, band int
	}
	segAt := make(map[segKey]segMeta, len(ft.Segments))
	for _, sg := range ft.Segments {
		segAt[segKey{sg.Kind, sg.Attr, sg.Band}] = sg
	}
	view := func(sg segMeta) []byte { return data[sg.Off : sg.Off+sg.Len] }

	cols := make([][]int64, d)
	for i := 0; i < d; i++ {
		sg := segAt[segKey{segCol, i, -1}]
		if sg.Len != int64(n)*8 {
			return nil, corrupt(sg.Off, "column %d segment holds %d bytes, want %d", i, sg.Len, int64(n)*8)
		}
		cols[i] = int64View(view(sg))
	}

	s := &Store{
		path:   path,
		schema: schema,
		n:      n,
		segs:   ft.Segments,
		data:   data,
		bands:  make([]*index.Store, 0, ft.Bands),
	}
	for band := 0; band < ft.Bands; band++ {
		lo, hi := band*n/ft.Bands, (band+1)*n/ft.Bands
		bn := hi - lo
		a := index.Artifacts{
			N:          bn,
			Cols:       make([][]int64, d),
			Post:       make([]map[int64][]int32, d),
			SortedVal:  make([][]int64, d),
			SortedRank: make([][]int32, d),
			RankPos:    make([][]int32, d),
			Stats:      stats,
		}
		for i := 0; i < d; i++ {
			a.Cols[i] = cols[i][lo:hi]
			if schema.Attr(i).Kind == dataspace.Categorical {
				post, err := decodePosting(segAt[segKey{segPostKey, i, band}], segAt[segKey{segPostOff, i, band}], segAt[segKey{segPostRank, i, band}], view, bn)
				if err != nil {
					return nil, err
				}
				a.Post[i] = post
			} else {
				sv, sr, rp := segAt[segKey{segSortVal, i, band}], segAt[segKey{segSortRank, i, band}], segAt[segKey{segRankPos, i, band}]
				if sv.Len != int64(bn)*8 || sr.Len != int64(bn)*4 || rp.Len != int64(bn)*4 {
					return nil, corrupt(sv.Off, "sorted segment of attribute %d band %d is inconsistent with %d tuples", i, band, bn)
				}
				a.SortedVal[i] = int64View(view(sv))
				a.SortedRank[i] = int32View(view(sr))
				a.RankPos[i] = int32View(view(rp))
			}
		}
		st, err := index.NewFromArtifacts(schema, a)
		if err != nil {
			return nil, corrupt(-1, "band %d: %w", band, err)
		}
		s.bands = append(s.bands, st)
	}
	return s, nil
}

// decodePosting rebuilds one band's posting map with rank slices aliasing
// the mapped postrank segment. The offset table is validated structurally:
// monotone, in bounds, and accounting for exactly the band's tuple count
// (every rank appears in exactly one posting list).
func decodePosting(key, off, rank segMeta, view func(segMeta) []byte, bandN int) (map[int64][]int32, *CorruptionError) {
	if key.Len%8 != 0 || off.Len%8 != 0 || rank.Len%4 != 0 {
		return nil, corrupt(key.Off, "posting segments have torn element sizes")
	}
	keys := int64View(view(key))
	offs := int64View(view(off))
	ranks := int32View(view(rank))
	if len(offs) != len(keys)+1 {
		return nil, corrupt(off.Off, "posting offset table holds %d entries for %d keys", len(offs), len(keys))
	}
	if len(ranks) != bandN {
		return nil, corrupt(rank.Off, "posting lists hold %d ranks, band holds %d tuples", len(ranks), bandN)
	}
	post := make(map[int64][]int32, len(keys))
	prev := int64(0)
	for i, v := range keys {
		lo, hi := offs[i], offs[i+1]
		if lo != prev || hi < lo || hi > int64(len(ranks)) {
			return nil, corrupt(off.Off, "posting offsets for value %d are not a partition", v)
		}
		if i > 0 && v <= keys[i-1] {
			return nil, corrupt(key.Off, "posting keys are not strictly ascending")
		}
		prev = hi
		post[v] = ranks[lo:hi:hi]
	}
	if len(keys) > 0 && prev != int64(len(ranks)) {
		return nil, corrupt(off.Off, "posting offsets cover %d of %d ranks", prev, len(ranks))
	}
	return post, nil
}

// verifySegments re-checksums every segment against the directory.
func verifySegments(data []byte, segs []segMeta) *CorruptionError {
	for _, sg := range segs {
		if got := crc32.ChecksumIEEE(data[sg.Off : sg.Off+sg.Len]); got != sg.CRC {
			return corrupt(sg.Off, "segment %s/attr=%d/band=%d CRC mismatch (got %08x, want %08x)", sg.Kind, sg.Attr, sg.Band, got, sg.CRC)
		}
	}
	return nil
}

// Verify re-checksums every segment of the open store (reads the whole
// file once). It does not quarantine — the caller decides what to do with
// a store that was valid at Open and has rotted since.
func (s *Store) Verify() error {
	if err := verifySegments(s.data, s.segs); err != nil {
		err.Path = s.path
		return err
	}
	return nil
}

// Close unmaps the file. The caller must have drained every in-flight
// query: results already returned remain valid (tuples are copied onto the
// heap), but no method may be called after Close.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		if s.unmap != nil {
			s.closeErr = s.unmap()
		}
	})
	return s.closeErr
}

// Path returns the store file's path.
func (s *Store) Path() string { return s.path }

// Bands returns the number of priority-band partitions fixed at build time.
func (s *Store) Bands() int { return len(s.bands) }

// NumShards aliases Bands under the sharded store's introspection name, so
// generic partition-count probes see both engines uniformly.
func (s *Store) NumShards() int { return len(s.bands) }

// Size returns the number of tuples in the store.
func (s *Store) Size() int { return s.n }

// Schema returns the store's schema (decoded from the footer).
func (s *Store) Schema() *dataspace.Schema { return s.schema }

// All copies the whole relation onto the heap in priority order — the
// Engine contract's Dump hook: the bands' rows, concatenated. On a
// larger-than-RAM store this allocates the full relation; it exists for
// tests and measurement, not the query path.
func (s *Store) All() []dataspace.Tuple {
	out := make([]dataspace.Tuple, 0, s.n)
	for _, b := range s.bands {
		out = append(out, b.All()...)
	}
	return out
}

// PlanStats aggregates the per-band planner counters, exactly as
// index.Sharded aggregates its shards'.
func (s *Store) PlanStats() index.PlanStats {
	var ps index.PlanStats
	for _, b := range s.bands {
		ps.Merge(b.PlanStats())
	}
	return ps
}

// EngineStats identifies the disk engine.
func (s *Store) EngineStats() index.EngineStats { return index.EngineStats{Kind: "disk"} }

// Select returns up to limit+1 tuples matching q in descending priority
// order — bit-identical to the in-memory engines over the same relation.
// Bands are visited in priority order with Sharded's early-exit walk, so an
// overflowing query usually never touches the cold tail of the file. The
// tuples are heap copies; a query the first band decides costs two
// allocations (the result slice and its row slab), whatever its size.
func (s *Store) Select(q dataspace.Query, limit int) []dataspace.Tuple {
	if limit < 0 {
		limit = 0
	}
	want := limit + 1
	var out []dataspace.Tuple
	for _, b := range s.bands {
		got := b.Select(q, want-len(out)-1)
		if out == nil {
			out = got // common case: the first band already decides
		} else {
			out = append(out, got...)
		}
		if len(out) >= want {
			break
		}
	}
	if out == nil {
		out = []dataspace.Tuple{}
	}
	return out
}

// SelectBatch mirrors index.Sharded's fan-out: each query runs the
// early-exit band walk on its own goroutine, capped at GOMAXPROCS live
// goroutines; a cancelled ctx stops launching and the answered prefix is
// returned. Result i is exactly Select(qs[i], limit).
func (s *Store) SelectBatch(ctx context.Context, qs []dataspace.Query, limit int) [][]dataspace.Tuple {
	if len(s.bands) == 1 {
		return s.bands[0].SelectBatch(ctx, qs, limit)
	}
	out := make([][]dataspace.Tuple, len(qs))
	var wg sync.WaitGroup
	gate := make(chan struct{}, runtime.GOMAXPROCS(0))
	launched := len(qs)
	for i, q := range qs {
		if ctx.Err() != nil {
			launched = i
			break
		}
		wg.Add(1)
		gate <- struct{}{}
		go func(i int, q dataspace.Query) {
			defer wg.Done()
			out[i] = s.Select(q, limit)
			<-gate
		}(i, q)
	}
	wg.Wait()
	return out[:launched]
}

// Count returns the exact number of tuples matching q: the sum of the
// per-band counts. Like Sharded.Count, large stores fan the per-band
// counts out on goroutines; small ones walk serially.
func (s *Store) Count(q dataspace.Query) int {
	const fanOutMin = 1 << 14 // tuples; below this a serial walk is faster
	if len(s.bands) == 1 || s.n < fanOutMin {
		c := 0
		for _, b := range s.bands {
			c += b.Count(q)
		}
		return c
	}
	counts := make([]int, len(s.bands))
	var wg sync.WaitGroup
	for i, b := range s.bands {
		wg.Add(1)
		go func(i int, b *index.Store) {
			defer wg.Done()
			counts[i] = b.Count(q)
		}(i, b)
	}
	wg.Wait()
	c := 0
	for _, v := range counts {
		c += v
	}
	return c
}
