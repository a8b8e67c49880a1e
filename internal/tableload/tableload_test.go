package tableload

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"hidb/internal/core"
	"hidb/internal/dataspace"
	"hidb/internal/hiddendb"
)

const carsTSV = `make	body	price	year
bmw	sedan	17500	2009
bmw	sedan	17500	2009
bmw	coupe	3299	2001
audi	convertible	50000	2011
audi	sedan	21000	2010
`

func TestReadTSV(t *testing.T) {
	ds, err := Read(strings.NewReader(carsTSV), Options{Name: "cars"})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 5 || ds.Name != "cars" {
		t.Fatalf("n = %d, name %q; want 5, cars", ds.N(), ds.Name)
	}
	// make and body become categorical (2 and 3 values); price and year
	// numeric with data-derived bounds.
	sch := ds.Schema
	if sch.Cat() != 2 || sch.Dims() != 4 {
		t.Fatalf("schema %s: cat=%d dims=%d", sch, sch.Cat(), sch.Dims())
	}
	if sch.Attr(0).Name != "make" || sch.Attr(0).DomainSize != 2 {
		t.Errorf("attr0 = %+v", sch.Attr(0))
	}
	if sch.Attr(1).Name != "body" || sch.Attr(1).DomainSize != 3 {
		t.Errorf("attr1 = %+v", sch.Attr(1))
	}
	if a := sch.Attr(2); a.Name != "price" || a.Min != 3299 || a.Max != 50000 {
		t.Errorf("attr2 = %+v, want price in [3299,50000]", a)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each row keeps its place; categorical values are numbered in order
	// of first appearance (bmw=1, audi=2; sedan=1, coupe=2, convertible=3),
	// and the duplicate row survives as a bag duplicate.
	want := dataspace.Bag{
		{1, 1, 17500, 2009},
		{1, 1, 17500, 2009},
		{1, 2, 3299, 2001},
		{2, 3, 50000, 2011},
		{2, 1, 21000, 2010},
	}
	for i, tu := range ds.Tuples {
		if !tu.Equal(want[i]) {
			t.Errorf("row %d = %v, want %v", i, tu, want[i])
		}
	}
}

// TestDecodeTupleRoundTrip decodes every loaded tuple back to the source
// file's strings and column order, inverting the loader's encoding by hand:
// categorical columns come first in the schema, and their values are
// numbered 1..U in order of first appearance. The file interleaves numeric
// and categorical columns so the reordering is exercised.
func TestDecodeTupleRoundTrip(t *testing.T) {
	const src = "price\tmake\tyear\tbody\n" +
		"17500\tbmw\t2009\tsedan\n" +
		"3299\tbmw\t2001\tcoupe\n" +
		"50000\taudi\t2011\tconvertible\n" +
		"21000\taudi\t2010\tsedan\n"
	ds, err := Read(strings.NewReader(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(src), "\n")
	var rows [][]string
	for _, line := range lines[1:] {
		rows = append(rows, strings.Split(line, "\t"))
	}
	// Schema position -> file column: make, body, then price, year.
	schemaToSource := []int{1, 3, 0, 2}
	for pos, c := range schemaToSource {
		if got, want := ds.Schema.Attr(pos).Name, strings.Split(lines[0], "\t")[c]; got != want {
			t.Fatalf("attr %d = %q, want %q", pos, got, want)
		}
	}
	dicts := make([][]string, len(schemaToSource))
	for pos, c := range schemaToSource[:ds.Schema.Cat()] {
		seen := map[string]bool{}
		for _, row := range rows {
			if !seen[row[c]] {
				seen[row[c]] = true
				dicts[pos] = append(dicts[pos], row[c])
			}
		}
	}
	if len(ds.Tuples) != len(rows) {
		t.Fatalf("n = %d, want %d", len(ds.Tuples), len(rows))
	}
	for i, tu := range ds.Tuples {
		cells := make([]string, len(tu))
		for pos, c := range schemaToSource {
			if dict := dicts[pos]; dict != nil {
				v := tu[pos]
				if v < 1 || int(v) > len(dict) {
					t.Fatalf("row %d: value %d outside dictionary of %q", i, v, ds.Schema.Attr(pos).Name)
				}
				cells[c] = dict[v-1]
			} else {
				cells[c] = strconv.FormatInt(tu[pos], 10)
			}
		}
		for c := range rows[i] {
			if cells[c] != rows[i][c] {
				t.Fatalf("row %d col %d: %q != %q", i, c, cells[c], rows[i][c])
			}
		}
	}
}

func TestReadCSVAutoDetect(t *testing.T) {
	csv := strings.ReplaceAll(carsTSV, "\t", ",")
	ds, err := Read(strings.NewReader(csv), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 5 || ds.Schema.Cat() != 2 {
		t.Fatalf("CSV auto-detect failed: n=%d cat=%d", ds.N(), ds.Schema.Cat())
	}
}

func TestLoadedDatasetIsCrawlable(t *testing.T) {
	ds, err := Read(strings.NewReader(carsTSV), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hiddendb.NewLocal(ds.Schema, ds.Tuples, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (core.Hybrid{}).Crawl(context.Background(), srv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tuples.EqualMultiset(ds.Tuples) {
		t.Fatal("crawl of loaded dataset incomplete")
	}
}

func TestReadErrors(t *testing.T) {
	// Ragged row.
	if _, err := Read(strings.NewReader("a,b\n1\n"), Options{}); err == nil {
		t.Error("ragged row accepted")
	}
	// Domain cap.
	var sb strings.Builder
	sb.WriteString("text\n")
	for i := 0; i < 50; i++ {
		sb.WriteString(strings.Repeat("x", i+1) + "\n")
	}
	if _, err := Read(strings.NewReader(sb.String()), Options{MaxDomain: 10}); err == nil {
		t.Error("over-cap categorical column accepted")
	}
}

func TestReadEmptyFile(t *testing.T) {
	ds, err := Read(strings.NewReader("a,b\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 0 {
		t.Fatalf("n = %d, want 0", ds.N())
	}
	// The inferred schema must still be valid (placeholder domains/bounds).
	if ds.Schema.Dims() != 2 {
		t.Fatalf("dims = %d, want 2", ds.Schema.Dims())
	}
}

func TestNumericColumnWithNegatives(t *testing.T) {
	src := "delta\n-5\n0\n17\n"
	ds, err := Read(strings.NewReader(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := ds.Schema.Attr(0)
	if a.Min != -5 || a.Max != 17 {
		t.Fatalf("bounds [%d,%d], want [-5,17]", a.Min, a.Max)
	}
}

func TestMixedDigitsAndTextIsCategorical(t *testing.T) {
	src := "zip\n02139\nN/A\n10001\n"
	ds, err := Read(strings.NewReader(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Schema.Attr(0).Kind.String() != "categorical" {
		t.Error("column with a non-numeric cell inferred as numeric")
	}
	if ds.Schema.Attr(0).DomainSize != 3 {
		t.Errorf("domain = %d, want 3", ds.Schema.Attr(0).DomainSize)
	}
}
