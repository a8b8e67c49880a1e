// Sampled selectivity statistics.
//
// Choosing scan versus index with a hard-coded margin (say, any index path
// touching at most n/4 candidates beats the scan) encodes an assumption
// about data shape that real datasets routinely violate: a 90%-selective
// predicate makes a 250k-candidate posting walk far slower than a scan
// that early-exits within a few thousand ranks, while a pathological
// distribution that hides all matches at the bottom of the rank space makes
// the same scan catastrophically slow.
//
// SelStats replaces the assumption with measurement: one stride sample of
// the relation, taken at Store construction, kept column-major so the
// planner can evaluate an actual query's full conjunction against it in a
// few microseconds. The sampled joint selectivity — not a per-predicate
// independence guess — drives the expected early-exit scan cost, and
// per-attribute equality selectivities (the sample's value-frequency second
// moment) summarize how selective a typical point predicate on each
// attribute is. A Sharded store builds one SelStats over the whole relation
// and shares it across shards: selectivity is a property of the data shape,
// not of any one priority band.
package index

import (
	"math/bits"

	"hidb/internal/dataspace"
)

// statsSampleMax caps the stride sample size. 1024 rows keep the sample
// resident in cache and a full-conjunction evaluation under a microsecond,
// while estimating selectivities to a few percent.
const statsSampleMax = 1 << 10

// SelStats holds the sampled selectivity statistics of one relation. Built
// once at Store construction and immutable afterwards; a Sharded store
// shares one instance across all shards.
type SelStats struct {
	// n is the relation size the sample was drawn from.
	n int
	// sampled is the number of sampled rows.
	sampled int
	// cols is the column-major sample: cols[i][j] is attribute i of sampled
	// row j.
	cols [][]int64
	// isCat mirrors the schema's attribute kinds.
	isCat []bool
	// eqSel[i] estimates, for categorical attribute i, the expected fraction
	// of the relation matched by an equality predicate whose value is drawn
	// with the data's own frequency — the sample's value-frequency second
	// moment Σ (c_v/S)². High-skew attributes score high (a typical equality
	// matches a lot), near-key attributes score near zero.
	eqSel []float64
}

// SampleSizeFor returns how many rows the deterministic stride sample of an
// n-tuple relation holds, and the stride between sampled ranks. A builder
// that persists the sample (the disk store's footer) uses the same rule, so
// the statistics it reconstructs match buildSelStats bit for bit.
func SampleSizeFor(n int) (sampled, stride int) {
	sampled = min(n, statsSampleMax)
	if sampled == 0 {
		return 0, 0
	}
	return sampled, n / sampled
}

// buildSelStats stride-samples the relation. Stride sampling is cheap, hits
// every priority band evenly, and is deterministic — the same relation
// always yields the same statistics.
func buildSelStats(schema *dataspace.Schema, byRank []dataspace.Tuple) *SelStats {
	n := len(byRank)
	sampled, stride := SampleSizeFor(n)
	rows := make([]dataspace.Tuple, sampled)
	for j := 0; j < sampled; j++ {
		rows[j] = byRank[j*stride]
	}
	return NewSelStats(schema, n, rows)
}

// NewSelStats computes selectivity statistics from an already-drawn sample
// of an n-tuple relation — rows must be the deterministic stride sample
// (see SampleSizeFor). Store construction uses it via buildSelStats; a
// disk store's Open feeds it the sample persisted in the file footer, which
// is what makes the on-disk engine's cost model identical to the in-memory
// one over the same relation.
func NewSelStats(schema *dataspace.Schema, n int, rows []dataspace.Tuple) *SelStats {
	d := schema.Dims()
	sampled := len(rows)
	st := &SelStats{
		n:       n,
		sampled: sampled,
		cols:    make([][]int64, d),
		isCat:   make([]bool, d),
		eqSel:   make([]float64, d),
	}
	for i := 0; i < d; i++ {
		st.isCat[i] = schema.Attr(i).Kind == dataspace.Categorical
		st.cols[i] = make([]int64, sampled)
	}
	if sampled == 0 {
		return st
	}
	for j, t := range rows {
		for i := 0; i < d; i++ {
			st.cols[i][j] = t[i]
		}
	}
	counts := make(map[int64]int, 64)
	for i := 0; i < d; i++ {
		if !st.isCat[i] {
			continue
		}
		clear(counts)
		for _, v := range st.cols[i] {
			counts[v]++
		}
		var m2 float64
		s := float64(sampled)
		for _, c := range counts {
			f := float64(c) / s
			m2 += f * f
		}
		st.eqSel[i] = m2
	}
	return st
}

// SampleRows returns the sampled rows, materialized row-major. The disk
// builder persists them in the store footer.
func (st *SelStats) SampleRows() []dataspace.Tuple {
	d := len(st.cols)
	rows := make([]dataspace.Tuple, st.sampled)
	for j := range rows {
		t := make(dataspace.Tuple, d)
		for i := 0; i < d; i++ {
			t[i] = st.cols[i][j]
		}
		rows[j] = t
	}
	return rows
}

// jointSel estimates the fraction of the relation matched by the whole
// conjunction, by evaluating it over the sample. The estimate is smoothed
// away from zero (half a row's worth) so the cost model never divides by
// zero and never treats "no sampled match" as "no match at all".
//
// The planner runs it for every query no index path settles, so it works
// like the chunked scan: per 64-row block of the column-major sample, each
// bound predicate ANDs in a survivor word from one sequential column read,
// and the block stops at its first empty word.
func (st *SelStats) jointSel(preds []dataspace.Pred) float64 {
	if st.sampled == 0 {
		return 1
	}
	matched := 0
	for base := 0; base < st.sampled; base += 64 {
		end := min(base+64, st.sampled)
		alive := ^uint64(0) >> uint(64-(end-base))
		for i := range preds {
			p := &preds[i]
			var m uint64
			if st.isCat[i] {
				if p.Wild {
					continue
				}
				val := p.Value
				for j, v := range st.cols[i][base:end] {
					var bit uint64
					if v == val {
						bit = 1
					}
					m |= bit << (uint(j) & 63)
				}
			} else {
				lo, hi := p.Lo, p.Hi
				if lo == dataspace.NegInf && hi == dataspace.PosInf {
					continue
				}
				for j, v := range st.cols[i][base:end] {
					var bit uint64
					if v >= lo && v <= hi {
						bit = 1
					}
					m |= bit << (uint(j) & 63)
				}
			}
			if alive &= m; alive == 0 {
				break
			}
		}
		matched += bits.OnesCount64(alive)
	}
	sel := float64(matched) / float64(st.sampled)
	if floor := 0.5 / float64(st.sampled); sel < floor {
		sel = floor
	}
	return sel
}

// EqSel returns the sampled expected equality selectivity of categorical
// attribute i (0 for numeric attributes).
func (st *SelStats) EqSel(i int) float64 { return st.eqSel[i] }

// SampleSize returns the number of sampled rows.
func (st *SelStats) SampleSize() int { return st.sampled }
