package journal

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/hiddendb"
)

// populatedJournal builds a journal holding a small crawl-like mix of
// entries. Deliberately small: the torn-file test re-reads it once per
// sampled cut point.
func populatedJournal(t *testing.T) *Journal {
	t.Helper()
	ds, err := datagen.Random(datagen.RandomSpec{
		N:          250,
		CatDomains: []int{4},
		NumRanges:  [][2]int64{{0, 500}},
		DupRate:    0.05,
	}, 23)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	j := New(ds.Schema, 8)
	wrapped, err := Wrap(srv, j)
	if err != nil {
		t.Fatal(err)
	}
	recordMix(t, wrapped, 100, 23)
	if j.Len() < 10 {
		t.Fatalf("journal too small to exercise recovery: %d entries", j.Len())
	}
	return j
}

// assertPrefixOf fails unless got's entries are a prefix of want's
// insertion order with identical responses.
func assertPrefixOf(t *testing.T, got, want *Journal) {
	t.Helper()
	if got.Len() > want.Len() {
		t.Fatalf("recovered %d entries from a journal of %d", got.Len(), want.Len())
	}
	for i, g := range got.log {
		w := want.log[i]
		if g.q.Key() != w.q.Key() {
			t.Fatalf("recovered entry %d is %s, want %s (not a prefix)", i, g.q, w.q)
		}
		if g.res.Overflow != w.res.Overflow || !g.res.Tuples.EqualMultiset(w.res.Tuples) {
			t.Fatalf("recovered entry %d differs from the original", i)
		}
	}
}

// TestRecoverTornFile cuts a serialized journal at sampled byte offsets
// (every byte near the start and end, a stride through the middle) and
// checks the reader always recovers a valid prefix: recovered length is
// monotone in the cut position, every recovered entry matches the
// original, and only the full file reads back clean.
func TestRecoverTornFile(t *testing.T) {
	j := populatedJournal(t)
	var buf bytes.Buffer
	if _, err := j.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// A file cut inside the magic is unrecognizable as a journal at all;
	// it must be reported as corruption with nothing recovered.
	for cut := 0; cut < len(magicV2); cut++ {
		got, err := ReadFrom(bytes.NewReader(full[:cut]))
		var ce *CorruptionError
		if !errors.As(err, &ce) || got != nil || ce.Entries != 0 {
			t.Fatalf("cut %d (inside magic): journal %v, err %v; want nil and an empty *CorruptionError", cut, got, err)
		}
	}

	// Every byte would be quadratic in the file size; sample instead —
	// densely at both ends (header and trailer boundaries live there)
	// plus an odd stride through the middle so cuts land at every kind
	// of intra-record offset.
	var cuts []int
	dense := 300
	stride := len(full) / 200
	if stride < 1 {
		stride = 1
	}
	for cut := len(magicV2); cut <= len(full); cut++ {
		if cut < len(magicV2)+dense || cut > len(full)-dense || (cut-len(magicV2))%stride == 0 {
			cuts = append(cuts, cut)
		}
	}

	prev := 0
	sawClean := false
	for _, cut := range cuts {
		got, err := ReadFrom(bytes.NewReader(full[:cut]))
		var ce *CorruptionError
		switch {
		case err == nil:
			if got.Len() != j.Len() {
				t.Fatalf("cut %d read clean with %d of %d entries", cut, got.Len(), j.Len())
			}
			sawClean = true
		case errors.As(err, &ce):
			if got == nil {
				if ce.Entries != 0 {
					t.Fatalf("cut %d: nil journal but %d entries reported", cut, ce.Entries)
				}
				continue
			}
			if ce.Entries != got.Len() {
				t.Fatalf("cut %d: error reports %d entries, journal has %d", cut, ce.Entries, got.Len())
			}
			assertPrefixOf(t, got, j)
			if got.Len() < prev {
				t.Fatalf("cut %d recovered %d entries, shorter cut recovered %d", cut, got.Len(), prev)
			}
			prev = got.Len()
		default:
			t.Fatalf("cut %d: unexpected error type: %v", cut, err)
		}
	}
	if !sawClean {
		t.Fatal("the untruncated journal never read back clean")
	}
	if prev < j.Len()-1 {
		t.Fatalf("cutting just before the trailer recovered only %d of %d entries", prev, j.Len())
	}
}

// TestRecoverBitFlip flips single bytes inside the entry region and checks
// the CRC catches the damage: the reader returns a valid (possibly
// shortened) prefix, never silently corrupted data.
func TestRecoverBitFlip(t *testing.T) {
	j := populatedJournal(t)
	var buf bytes.Buffer
	if _, err := j.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Flip bytes spread across the file, the magic included.
	for off := 0; off < len(full); off += len(full) / 37 {
		damaged := bytes.Clone(full)
		damaged[off] ^= 0x40
		got, err := ReadFrom(bytes.NewReader(damaged))
		if err == nil {
			// The flip landed in a spot the decoder provably re-validated
			// (e.g. inside JSON whitespace there is none — but a flipped
			// bit can still yield a CRC-valid record only with probability
			// ~2^-32, so a clean read means the decode round-tripped).
			// Verify nothing was silently altered.
			if got.Len() != j.Len() {
				t.Fatalf("offset %d: clean read with %d of %d entries", off, got.Len(), j.Len())
			}
			assertPrefixOf(t, got, j)
			continue
		}
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("offset %d: unexpected error type: %v", off, err)
		}
		if got != nil {
			assertPrefixOf(t, got, j)
		}
	}
}

// TestSaveLoadFile exercises the crash-safe file helpers: round trip,
// missing file, and recovery-with-quarantine of a torn file.
func TestSaveLoadFile(t *testing.T) {
	j := populatedJournal(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "crawl.journal")

	if _, err := LoadFile(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}

	if err := SaveFile(path, j); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != j.Len() {
		t.Fatalf("round trip lost entries: %d of %d", back.Len(), j.Len())
	}

	// Tear the file mid-way, as a crash during a (non-atomic) write or a
	// truncating filesystem would.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:2*len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := LoadFile(path)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("torn file: err = %v, want *CorruptionError", err)
	}
	if rec == nil || rec.Len() == 0 {
		t.Fatal("torn file recovered nothing")
	}
	assertPrefixOf(t, rec, j)
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("damaged original not quarantined: %v", err)
	}
	// The clean prefix was written back: the next load is ordinary.
	again, err := LoadFile(path)
	if err != nil {
		t.Fatalf("re-load after recovery: %v", err)
	}
	if again.Len() != rec.Len() {
		t.Fatalf("re-load after recovery: %d entries, want %d", again.Len(), rec.Len())
	}
}
