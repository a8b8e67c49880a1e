// The streaming store builder.
//
// A Builder consumes tuples one at a time in descending priority order and
// never holds the relation: Add appends each attribute's value to a
// buffered per-attribute temp column file, and Finish assembles the final
// store from those columns one (band, attribute) slice at a time. Peak
// memory is one band's worth of one column plus the selectivity sample —
// megabytes while building a multi-gigabyte store — which is what lets
// datagen.TieredSeq stream a 10M-tuple tier into a store on a small heap.
//
// Finish is crash-safe the way journal.SaveFile is: the store is written to
// a temp file in the destination directory, fsynced, atomically renamed
// over the destination, and the directory entry is fsynced. A crash at any
// point leaves either the old file or no file, never a torn store; a torn
// write that somehow survives (power cut between rename and data reaching
// the platter) is caught by Open's footer checks and quarantined.
package diskstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"hidb/internal/dataspace"
	"hidb/internal/index"
	"hidb/internal/wire"
)

// BuildOptions configures a store build.
type BuildOptions struct {
	// Bands is the number of contiguous priority-rank partitions: the
	// opened store is an index.Sharded with one shard per band, each band
	// carrying its own posting and sorted-segment indexes. The count is
	// clamped by index.Partitions (0 means 1; the empty relation keeps one
	// empty band).
	Bands int
}

// addChunk is the per-attribute buffered write size of Add, in values.
const addChunk = 8192

// Builder writes one immutable store file. Not safe for concurrent use.
type Builder struct {
	path   string
	schema *dataspace.Schema
	bands  int
	tmps   []*os.File
	bufs   [][]int64
	n      int
	done   bool
}

// NewBuilder starts a store build at path. Tuples are streamed in with Add
// in descending priority order; Finish writes the store; Close cleans up
// (defer it — it is a no-op after a successful Finish).
func NewBuilder(path string, schema *dataspace.Schema, opts BuildOptions) (*Builder, error) {
	if schema == nil {
		return nil, fmt.Errorf("diskstore: nil schema")
	}
	if opts.Bands < 0 {
		return nil, fmt.Errorf("diskstore: band count must be >= 0, got %d", opts.Bands)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := schema.Dims()
	b := &Builder{path: path, schema: schema, bands: opts.Bands, tmps: make([]*os.File, d), bufs: make([][]int64, d)}
	for i := 0; i < d; i++ {
		f, err := os.CreateTemp(dir, filepath.Base(path)+".col-*")
		if err != nil {
			b.Close()
			return nil, err
		}
		b.tmps[i] = f
		b.bufs[i] = make([]int64, 0, addChunk)
	}
	return b, nil
}

// Add appends the next tuple (rank order = call order). The tuple must
// validate against the schema.
func (b *Builder) Add(t dataspace.Tuple) error {
	if b.done {
		return fmt.Errorf("diskstore: Add after Finish")
	}
	if err := t.Validate(b.schema); err != nil {
		return fmt.Errorf("diskstore: tuple at rank %d: %w", b.n, err)
	}
	for i, v := range t {
		b.bufs[i] = append(b.bufs[i], v)
		if len(b.bufs[i]) == addChunk {
			if _, err := b.tmps[i].Write(bytesOfInt64(b.bufs[i])); err != nil {
				return err
			}
			b.bufs[i] = b.bufs[i][:0]
		}
	}
	b.n++
	return nil
}

// Close releases the builder's temp files. After a successful Finish it is
// a no-op; otherwise it aborts the build, leaving the destination path
// untouched.
func (b *Builder) Close() error {
	for i, f := range b.tmps {
		if f != nil {
			f.Close()
			os.Remove(f.Name())
			b.tmps[i] = nil
		}
	}
	return nil
}

// Finish assembles and atomically publishes the store file, then releases
// the temp columns. The builder cannot be reused afterwards.
func (b *Builder) Finish() (err error) {
	if b.done {
		return fmt.Errorf("diskstore: Finish called twice")
	}
	b.done = true
	defer b.Close()
	for i := range b.tmps {
		if len(b.bufs[i]) > 0 {
			if _, err := b.tmps[i].Write(bytesOfInt64(b.bufs[i])); err != nil {
				return err
			}
			b.bufs[i] = nil
		}
	}
	n, d := b.n, b.schema.Dims()
	bands := index.Partitions(n, b.bands)

	dir := filepath.Dir(b.path)
	out, err := os.CreateTemp(dir, filepath.Base(b.path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			out.Close()
			os.Remove(out.Name())
		}
	}()

	sw := &segWriter{w: bufio.NewWriterSize(out, 1<<20)}
	var header [headerLen]byte
	copy(header[:], fileMagic)
	if err := sw.writeRaw(header[:]); err != nil {
		return err
	}

	// Global column segments, streamed straight from the temp columns.
	for i := 0; i < d; i++ {
		if err := sw.writeSegFrom(segCol, i, -1, b.tmps[i], int64(n)*8); err != nil {
			return err
		}
	}

	// Band indexes, one (band, attribute) column slice in memory at a
	// time, collecting the selectivity sample's cells on the way through.
	sampled, stride := index.SampleSizeFor(n)
	sample := make([][]int64, sampled)
	for j := range sample {
		sample[j] = make([]int64, d)
	}
	for band := 0; band < bands; band++ {
		lo, hi := index.PartitionRange(n, bands, band)
		for i := 0; i < d; i++ {
			col := make([]int64, hi-lo)
			if len(col) > 0 {
				if _, err := b.tmps[i].ReadAt(bytesOfInt64(col), int64(lo)*8); err != nil {
					return err
				}
			}
			if sampled > 0 {
				for j := (lo + stride - 1) / stride; j < sampled && j*stride < hi; j++ {
					sample[j][i] = col[j*stride-lo]
				}
			}
			if b.schema.Attr(i).Kind == dataspace.Categorical {
				err = b.writePosting(sw, i, band, col)
			} else {
				err = b.writeSorted(sw, i, band, col)
			}
			if err != nil {
				return err
			}
		}
	}

	// Footer frame + trailer.
	ft := fileFooter{
		Version:  formatVersion,
		Attrs:    wire.EncodeSchema(b.schema, 1).Attributes, // K is not a store property; 1 is a placeholder
		N:        n,
		Bands:    bands,
		Sample:   sample,
		Segments: sw.segs,
	}
	if err := sw.writeFooter(&ft); err != nil {
		return err
	}
	if err := sw.w.Flush(); err != nil {
		return err
	}
	if err := out.Sync(); err != nil {
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	if err := os.Rename(out.Name(), b.path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// writePosting writes one band's posting index (index.Postings) for a
// categorical attribute: sorted distinct values, a prefix-offset table, and
// the concatenated rank-ascending posting lists (band-local ranks).
func (b *Builder) writePosting(sw *segWriter, attr, band int, col []int64) error {
	post := index.Postings(col)
	keys := slices.Sorted(maps.Keys(post))
	offs := make([]int64, len(keys)+1)
	ranks := make([]int32, 0, len(col))
	for i, v := range keys {
		offs[i] = int64(len(ranks))
		ranks = append(ranks, post[v]...)
	}
	offs[len(keys)] = int64(len(ranks))
	if err := sw.writeSeg(segPostKey, attr, band, bytesOfInt64(keys)); err != nil {
		return err
	}
	if err := sw.writeSeg(segPostOff, attr, band, bytesOfInt64(offs)); err != nil {
		return err
	}
	return sw.writeSeg(segPostRank, attr, band, bytesOfInt32(ranks))
}

// writeSorted writes one band's sorted segment (index.SortedSegment) for a
// numeric attribute.
func (b *Builder) writeSorted(sw *segWriter, attr, band int, col []int64) error {
	vals, ranks, pos := index.SortedSegment(col)
	if err := sw.writeSeg(segSortVal, attr, band, bytesOfInt64(vals)); err != nil {
		return err
	}
	if err := sw.writeSeg(segSortRank, attr, band, bytesOfInt32(ranks)); err != nil {
		return err
	}
	return sw.writeSeg(segRankPos, attr, band, bytesOfInt32(pos))
}

// Build streams rows (descending priority order) into a new store file at
// path. The convenience wrapper over NewBuilder/Add/Finish that
// hidb.BuildDisk and the dataset tooling use.
func Build(path string, schema *dataspace.Schema, rows iter.Seq[dataspace.Tuple], opts BuildOptions) error {
	b, err := NewBuilder(path, schema, opts)
	if err != nil {
		return err
	}
	defer b.Close()
	for t := range rows {
		if err := b.Add(t); err != nil {
			return err
		}
	}
	return b.Finish()
}

// segWriter appends 8-aligned, CRC'd segments to the output and records
// the directory the footer will carry.
type segWriter struct {
	w    *bufio.Writer
	off  int64
	segs []segMeta
}

func (sw *segWriter) writeRaw(b []byte) error {
	_, err := sw.w.Write(b)
	sw.off += int64(len(b))
	return err
}

var segPad [segAlign]byte

func (sw *segWriter) pad() error {
	if rem := sw.off % segAlign; rem != 0 {
		return sw.writeRaw(segPad[:segAlign-rem])
	}
	return nil
}

func (sw *segWriter) writeSeg(kind string, attr, band int, payload []byte) error {
	sw.segs = append(sw.segs, segMeta{Kind: kind, Attr: attr, Band: band, Off: sw.off, Len: int64(len(payload)), CRC: crc32.ChecksumIEEE(payload)})
	if err := sw.writeRaw(payload); err != nil {
		return err
	}
	return sw.pad()
}

// writeSegFrom streams a segment's payload from a file (the temp columns),
// checksumming on the way through so the payload is never held in memory.
func (sw *segWriter) writeSegFrom(kind string, attr, band int, src *os.File, length int64) error {
	meta := segMeta{Kind: kind, Attr: attr, Band: band, Off: sw.off, Len: length}
	crc := crc32.NewIEEE()
	n, err := io.Copy(io.MultiWriter(sw.w, crc), io.NewSectionReader(src, 0, length))
	sw.off += n
	if err != nil {
		return err
	}
	if n != length {
		return fmt.Errorf("diskstore: column segment %d holds %d bytes, want %d", attr, n, length)
	}
	meta.CRC = crc.Sum32()
	sw.segs = append(sw.segs, meta)
	return sw.pad()
}

// writeFooter frames the footer JSON (length, payload, CRC32 — the journal
// record frame) and closes the file with the fixed-size trailer.
func (sw *segWriter) writeFooter(ft *fileFooter) error {
	payload, err := json.Marshal(ft)
	if err != nil {
		return err
	}
	if int64(len(payload)) > maxFooterLen {
		return fmt.Errorf("diskstore: footer of %d bytes exceeds the format bound", len(payload))
	}
	footOff := sw.off
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(payload)))
	if err := sw.writeRaw(u32[:]); err != nil {
		return err
	}
	if err := sw.writeRaw(payload); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(u32[:], crc32.ChecksumIEEE(payload))
	if err := sw.writeRaw(u32[:]); err != nil {
		return err
	}
	var tr [trailerLen]byte
	binary.BigEndian.PutUint64(tr[0:8], uint64(footOff))
	binary.BigEndian.PutUint64(tr[8:16], uint64(len(payload)))
	copy(tr[16:], trailerMagic)
	return sw.writeRaw(tr[:])
}

// syncDir fsyncs a directory so a just-renamed file's entry is durable.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
}
