// Package tableload turns delimited text files (CSV/TSV with a header row)
// into crawlable datasets, so hidb-server can expose real data rather than
// only the synthetic workloads. Columns whose every value parses as an
// integer become numeric attributes (with bounds taken from the data);
// everything else becomes a categorical attribute whose string values are
// dictionary-encoded as 1..U in order of first appearance. Because the
// data-space convention puts categorical attributes first, the loader
// reorders columns: categorical ones first, then numeric ones, each group in
// file order.
package tableload

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hidb/internal/datagen"
	"hidb/internal/dataspace"
)

// Options configures loading.
type Options struct {
	// Comma is the field delimiter; 0 means auto-detect: '\t' if the
	// header contains one, else ','.
	Comma rune
	// Name labels the resulting dataset; defaults to "table".
	Name string
	// MaxDomain caps the inferred categorical domain size. A column with
	// more distinct strings than this fails the load (crawling cost for a
	// categorical attribute grows with its domain, so an unbounded
	// free-text column is almost certainly a mistake). 0 means 1 << 20.
	MaxDomain int
}

// Read loads a delimited file with a header row into a crawlable dataset
// named opts.Name, its columns in schema order (categorical first).
func Read(r io.Reader, opts Options) (*datagen.Dataset, error) {
	if opts.MaxDomain == 0 {
		opts.MaxDomain = 1 << 20
	}
	if opts.Name == "" {
		opts.Name = "table"
	}

	br := bufio.NewReader(r)
	if opts.Comma == 0 {
		head, err := br.Peek(4096)
		if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
			return nil, fmt.Errorf("tableload: peeking header: %w", err)
		}
		line := string(head)
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		if strings.ContainsRune(line, '\t') {
			opts.Comma = '\t'
		} else {
			opts.Comma = ','
		}
	}
	cr := csv.NewReader(br)
	cr.Comma = opts.Comma
	cr.ReuseRecord = true

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("tableload: reading header: %w", err)
	}
	cols := len(header)
	if cols == 0 {
		return nil, fmt.Errorf("tableload: empty header")
	}
	names := make([]string, cols)
	for i, h := range header {
		names[i] = strings.TrimSpace(h)
		if names[i] == "" {
			names[i] = fmt.Sprintf("col%d", i+1)
		}
	}

	// First pass: gather raw string cells.
	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("tableload: row %d: %w", len(rows)+2, err)
		}
		if len(rec) != cols {
			return nil, fmt.Errorf("tableload: row %d has %d fields, header has %d", len(rows)+2, len(rec), cols)
		}
		row := make([]string, cols)
		for i, cell := range rec {
			row[i] = strings.TrimSpace(cell)
		}
		rows = append(rows, row)
	}

	// Infer column kinds: numeric iff every value parses as int64.
	isNumeric := make([]bool, cols)
	for c := 0; c < cols; c++ {
		isNumeric[c] = len(rows) > 0
		for _, row := range rows {
			if _, err := strconv.ParseInt(row[c], 10, 64); err != nil {
				isNumeric[c] = false
				break
			}
		}
	}

	// Schema order: categorical columns first, then numeric, each group in
	// file order.
	var order []int
	for c := 0; c < cols; c++ {
		if !isNumeric[c] {
			order = append(order, c)
		}
	}
	catCount := len(order)
	for c := 0; c < cols; c++ {
		if isNumeric[c] {
			order = append(order, c)
		}
	}

	// Dictionary-encode categorical columns and bound numeric ones.
	attrs := make([]dataspace.Attribute, cols)
	encoded := make([]map[string]int64, cols)
	for pos, c := range order {
		if pos < catCount {
			encoded[pos] = make(map[string]int64)
			for _, row := range rows {
				v := row[c]
				if _, ok := encoded[pos][v]; !ok {
					encoded[pos][v] = int64(len(encoded[pos]) + 1)
				}
			}
			u := len(encoded[pos])
			if u == 0 {
				u = 1 // empty file: keep the schema valid
			}
			if u > opts.MaxDomain {
				return nil, fmt.Errorf("tableload: column %q has %d distinct values, above the %d cap — free-text column?",
					names[c], u, opts.MaxDomain)
			}
			attrs[pos] = dataspace.Attribute{
				Name:       names[c],
				Kind:       dataspace.Categorical,
				DomainSize: u,
			}
		} else {
			min, max := int64(0), int64(0)
			for i, row := range rows {
				v, _ := strconv.ParseInt(row[c], 10, 64)
				if i == 0 || v < min {
					min = v
				}
				if i == 0 || v > max {
					max = v
				}
			}
			if len(rows) == 0 {
				min, max = 0, 1
			}
			if min == 0 && max == 0 {
				max = 1 // (0,0) means "unbounded" to the schema; avoid it
			}
			attrs[pos] = dataspace.Attribute{
				Name: names[c],
				Kind: dataspace.Numeric,
				Min:  min,
				Max:  max,
			}
		}
	}
	schema, err := dataspace.NewSchema(attrs)
	if err != nil {
		return nil, fmt.Errorf("tableload: inferred schema invalid: %w", err)
	}

	tuples := make(dataspace.Bag, len(rows))
	for i, row := range rows {
		t := make(dataspace.Tuple, cols)
		for pos, c := range order {
			if pos < catCount {
				t[pos] = encoded[pos][row[c]]
			} else {
				t[pos], _ = strconv.ParseInt(row[c], 10, 64)
			}
		}
		tuples[i] = t
	}

	return &datagen.Dataset{
		Name:   opts.Name,
		Schema: schema,
		Tuples: tuples,
	}, nil
}
