// The on-disk file format.
//
// A store is one immutable file, written once by the Builder and then only
// ever read:
//
//	[header]   "hidbcol1\n" padded to 8 bytes
//	[segments] raw little-endian-native arrays, each padded to an 8-byte
//	           boundary so mmap'd views can be reinterpreted in place
//	[footer]   4-byte big-endian payload length, JSON payload, 4-byte
//	           IEEE CRC32 of the payload (journal/framed.go's record frame)
//	[trailer]  8-byte big-endian footer offset, 8-byte big-endian footer
//	           payload length, 8-byte trailer magic — fixed size, so a
//	           reader can find the footer from the end of the file
//
// The footer is the file's table of contents: the schema (the wire
// package's attribute encoding), the relation size, the band count, the
// persisted selectivity sample, and one directory entry per segment with
// its offset, payload length and CRC32. Everything a reader trusts is
// covered by a checksum: the footer by its frame CRC, each segment by its
// directory CRC (verified on demand — Verify, or OpenOptions.Verify).
//
// Segment payloads are arrays of int64 or int32 in the host's native byte
// order, so Open can serve them as typed slices straight out of the mapped
// file with zero decoding. The format is therefore an engine artifact, not
// an interchange format: a file written on a little-endian host is not
// readable on a big-endian one (rebuild it there instead).
package diskstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"unsafe"

	"hidb/internal/index"
	"hidb/internal/wire"
)

const (
	// fileMagic opens the file; headerLen pads it to segment alignment.
	fileMagic = "hidbcol1\n"
	headerLen = 16
	// trailerMagic closes the file.
	trailerMagic = "hidbtrlr"
	trailerLen   = 24
	// segAlign is the alignment of every segment (and of the footer), so
	// int64 views over the mapped file are always aligned loads.
	segAlign = 8
	// maxFooterLen bounds the footer frame a reader will believe, so a
	// corrupted length field cannot drive a huge allocation.
	maxFooterLen = 64 << 20
	// formatVersion is bumped on any incompatible layout change.
	formatVersion = 1
)

// Segment kinds. "col" segments are global (band == -1): one per attribute,
// the full column in rank order. The index segments are per band with
// band-local ranks: the posting index of a categorical attribute is its
// sorted distinct values (postkey), the prefix-offset table into the rank
// array (postoff, len(postkey)+1 entries), and the concatenated
// rank-ascending posting lists (postrank); the sorted segment of a numeric
// attribute is its values sorted ascending with rank ties (sortval), the
// rank of each sorted cell (sortrank), and the rank→sorted-position
// permutation (rankpos).
const (
	segCol      = "col"
	segPostKey  = "postkey"
	segPostOff  = "postoff"
	segPostRank = "postrank"
	segSortVal  = "sortval"
	segSortRank = "sortrank"
	segRankPos  = "rankpos"
)

// segMeta is one segment-directory entry of the footer.
type segMeta struct {
	Kind string `json:"kind"`
	Attr int    `json:"attr"`
	// Band is the priority band the segment indexes; -1 for the global
	// column segments.
	Band int    `json:"band"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"` // payload bytes, before padding
	CRC  uint32 `json:"crc"`
}

// fileFooter is the JSON payload of the footer frame.
type fileFooter struct {
	Version int `json:"version"`
	// Attrs is the schema in the wire package's attribute encoding.
	Attrs []wire.Attribute `json:"attrs"`
	N     int              `json:"n"`
	Bands int              `json:"bands"`
	// Sample is the relation's deterministic stride sample, row-major —
	// index.NewSelStats rebuilds the exact selectivity statistics the
	// in-memory engine would compute over the same relation.
	Sample   [][]int64 `json:"sample"`
	Segments []segMeta `json:"segments"`
}

// CorruptionError reports a store file that failed validation: a torn or
// bit-flipped footer, an implausible directory, or a segment whose checksum
// no longer matches. Open quarantines the damaged file (renamed to
// path+".corrupt") before returning it, mirroring journal.CorruptionError's
// contract: the bad bytes are preserved for forensics and the path is free
// for a rebuild.
type CorruptionError struct {
	// Path is the store file (its pre-quarantine name).
	Path string
	// Offset is the file offset implicated, -1 when unknown.
	Offset int64
	// Reason describes the validation failure.
	Reason error
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("diskstore: corrupt store %s at offset %d: %v", e.Path, e.Offset, e.Reason)
}

func (e *CorruptionError) Unwrap() error { return e.Reason }

// corrupt builds a CorruptionError (Path is filled in by Open).
func corrupt(off int64, format string, args ...any) *CorruptionError {
	return &CorruptionError{Offset: off, Reason: fmt.Errorf(format, args...)}
}

// int64View reinterprets an 8-aligned byte slice as []int64 in place.
func int64View(b []byte) []int64 {
	if len(b) < 8 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// int32View reinterprets a 4-aligned byte slice as []int32 in place.
func int32View(b []byte) []int32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// bytesOfInt64 is the writer-side inverse of int64View.
func bytesOfInt64(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// bytesOfInt32 is the writer-side inverse of int32View.
func bytesOfInt32(v []int32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

// decodeFooter locates, checksums and validates the footer of a store
// file's bytes. It is a pure function of the bytes — the fuzz target drives
// it directly — and returns a *CorruptionError (Path unset) on any damage.
func decodeFooter(data []byte) (*fileFooter, error) {
	size := int64(len(data))
	if size < headerLen+trailerLen {
		return nil, corrupt(0, "file holds %d bytes, smaller than any store", size)
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, corrupt(0, "bad file magic")
	}
	tr := data[size-trailerLen:]
	if string(tr[16:]) != trailerMagic {
		return nil, corrupt(size-trailerLen, "bad trailer magic (torn or truncated file)")
	}
	footOff := int64(binary.BigEndian.Uint64(tr[0:8]))
	footLen := int64(binary.BigEndian.Uint64(tr[8:16]))
	if footLen < 0 || footLen > maxFooterLen {
		return nil, corrupt(size-trailerLen, "implausible footer length %d", footLen)
	}
	// The footer frame is [4B len][payload][4B crc] ending at the trailer.
	frameLen := 4 + footLen + 4
	if footOff < headerLen || footOff%segAlign != 0 || footOff+frameLen != size-trailerLen {
		return nil, corrupt(size-trailerLen, "footer frame [%d,+%d) does not abut the trailer", footOff, frameLen)
	}
	frame := data[footOff : footOff+frameLen]
	if got := int64(binary.BigEndian.Uint32(frame[0:4])); got != footLen {
		return nil, corrupt(footOff, "footer frame length %d disagrees with trailer %d", got, footLen)
	}
	payload := frame[4 : 4+footLen]
	wantCRC := binary.BigEndian.Uint32(frame[4+footLen:])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, corrupt(footOff, "footer CRC mismatch (got %08x, want %08x)", got, wantCRC)
	}
	var ft fileFooter
	if err := json.Unmarshal(payload, &ft); err != nil {
		return nil, corrupt(footOff, "footer payload: %w", err)
	}
	if err := validateFooter(&ft, footOff); err != nil {
		return nil, err
	}
	return &ft, nil
}

// validateFooter checks the directory's internal consistency: version,
// sizes, and one well-formed segment per (kind, attr, band) slot with
// in-bounds, aligned, non-overlapping extents.
func validateFooter(ft *fileFooter, footOff int64) error {
	if ft.Version != formatVersion {
		return corrupt(footOff, "unsupported format version %d", ft.Version)
	}
	if ft.N < 0 || ft.Bands < 1 || len(ft.Attrs) == 0 {
		return corrupt(footOff, "implausible footer (n=%d, bands=%d, %d attrs)", ft.N, ft.Bands, len(ft.Attrs))
	}
	if index.Partitions(ft.N, ft.Bands) != ft.Bands {
		return corrupt(footOff, "%d bands over %d tuples", ft.Bands, ft.N)
	}
	d := len(ft.Attrs)
	for _, row := range ft.Sample {
		if len(row) != d {
			return corrupt(footOff, "sample row holds %d values, schema has %d attributes", len(row), d)
		}
	}
	seen := make(map[[3]int]bool, len(ft.Segments))
	kinds := map[string]int{segCol: 0, segPostKey: 1, segPostOff: 2, segPostRank: 3, segSortVal: 4, segSortRank: 5, segRankPos: 6}
	for i := range ft.Segments {
		sg := &ft.Segments[i]
		kid, ok := kinds[sg.Kind]
		if !ok {
			return corrupt(footOff, "segment %d has unknown kind %q", i, sg.Kind)
		}
		if sg.Attr < 0 || sg.Attr >= d {
			return corrupt(footOff, "segment %d indexes attribute %d of %d", i, sg.Attr, d)
		}
		wantBand := sg.Kind != segCol
		if (wantBand && (sg.Band < 0 || sg.Band >= ft.Bands)) || (!wantBand && sg.Band != -1) {
			return corrupt(footOff, "segment %d (%s) has band %d", i, sg.Kind, sg.Band)
		}
		if sg.Off < headerLen || sg.Off%segAlign != 0 || sg.Len < 0 || sg.Off+sg.Len > footOff {
			return corrupt(sg.Off, "segment %d (%s) extent [%d,+%d) escapes the data region", i, sg.Kind, sg.Off, sg.Len)
		}
		key := [3]int{kid, sg.Attr, sg.Band}
		if seen[key] {
			return corrupt(sg.Off, "duplicate segment %s/attr=%d/band=%d", sg.Kind, sg.Attr, sg.Band)
		}
		seen[key] = true
	}
	// Every slot the schema implies must be present: d column segments,
	// and per band either the posting or the sorted triple per attribute.
	for a, wa := range ft.Attrs {
		if !seen[[3]int{kinds[segCol], a, -1}] {
			return corrupt(footOff, "missing column segment for attribute %d", a)
		}
		var want []string
		switch wa.Kind {
		case "categorical":
			want = []string{segPostKey, segPostOff, segPostRank}
		case "numeric":
			want = []string{segSortVal, segSortRank, segRankPos}
		default:
			return corrupt(footOff, "attribute %d has unknown kind %q", a, wa.Kind)
		}
		for b := 0; b < ft.Bands; b++ {
			for _, k := range want {
				if !seen[[3]int{kinds[k], a, b}] {
					return corrupt(footOff, "missing %s segment for attribute %d band %d", k, a, b)
				}
			}
		}
	}
	return nil
}
