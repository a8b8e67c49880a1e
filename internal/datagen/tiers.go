package datagen

import (
	"fmt"
	"iter"

	"hidb/internal/dataspace"
	"hidb/internal/simrand"
)

// Pattern selects the tuple distribution of the scale-tier factory. The
// four patterns stress different parts of the query planner: Sequential
// produces long runs of equal values in rank order (run containers,
// perfectly clustered posting lists), Random produces uniform iid values
// (array/bitmap containers, no clustering), Realistic produces the skew the
// paper's datasets show (Zipf categorical marginals, numeric point masses),
// and Pathological hides every match of a specific 3-way conjunction at the
// bottom of the rank space, defeating both the scan's early exit and the
// posting walk's hope of finding k+1 matches near the top.
type Pattern int

const (
	PatternSequential Pattern = iota
	PatternRandom
	PatternRealistic
	PatternPathological
)

// Patterns lists every pattern, in declaration order.
var Patterns = []Pattern{PatternSequential, PatternRandom, PatternRealistic, PatternPathological}

func (p Pattern) String() string {
	switch p {
	case PatternSequential:
		return "seq"
	case PatternRandom:
		return "rand"
	case PatternRealistic:
		return "real"
	case PatternPathological:
		return "path"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Tier selects the dataset size of the scale-tier factory.
type Tier int

const (
	Tier10K Tier = iota
	Tier100K
	Tier1M
	// Tier10M is the larger-than-RAM tier: materializing it costs
	// gigabytes, so it is meant to be streamed (TieredSeq) into the disk
	// engine rather than built with Tiered.
	Tier10M
)

// Tiers lists every tier, smallest first. Code that materializes every
// tier should stop before Tier10M (see its comment).
var Tiers = []Tier{Tier10K, Tier100K, Tier1M, Tier10M}

// N returns the tier's tuple count.
func (t Tier) N() int {
	switch t {
	case Tier10K:
		return 10_000
	case Tier100K:
		return 100_000
	case Tier1M:
		return 1_000_000
	case Tier10M:
		return 10_000_000
	default:
		return 0
	}
}

func (t Tier) String() string {
	switch t {
	case Tier10K:
		return "10k"
	case Tier100K:
		return "100k"
	case Tier1M:
		return "1m"
	case Tier10M:
		return "10m"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// tierDomain sizes the three low-cardinality categorical attributes of the
// tier schema. 32 keeps them inside the planner's bitmap-index gate while
// making any single equality predicate match ~3% of the relation — broad
// enough that intersecting two or three of them is genuinely cheaper than
// walking one posting list.
const tierDomain = 32

// tierWideDomain sizes the high-cardinality categorical attribute, which
// stays on posting lists (beyond the bitmap gate).
const tierWideDomain = 1024

// pathoTailFrac is the fraction of Pathological ranks (at the bottom)
// holding the needle conjunction; see PathoNeedle.
const pathoTailFrac = 1024

// PathoNeedle is the categorical value v such that C1=v ∧ C2=v ∧ C3=v
// matches only the bottom 1/1024 of a Pathological dataset's ranks, while
// each predicate alone matches ~1/6 of the relation (the needle value is
// skewed: a sixth of all head tuples carry it in each needle attribute).
// Broad single predicates with a vanishing conjunction are the worst case
// the bitmap intersection exists for: every single-attribute access path
// must enumerate ~17% of the store, and the dense per-block bitmaps the
// skew produces make the word-parallel AND maximally profitable.
const PathoNeedle int64 = 1

// pathoNeedleProb is the per-attribute frequency of the needle value in
// Pathological head tuples: high enough that needle posting lists hold
// ~n/6 ranks and their per-block cardinality (~65536/6) crosses the
// bitmap-container threshold, low enough that the tightest list stays
// under n/4, so walking it remains a plausible rival plan to the bitmap
// AND rather than losing outright to the scan.
const pathoNeedleProb = 1.0 / 6

// TierSchema returns the fixed schema every tiered dataset shares: three
// low-cardinality categorical attributes C1..C3 (domain 32, bitmap-
// indexable), one high-cardinality categorical C4 (domain 1024, posting
// lists only), and two numeric attributes N1 (one distinct value per rank)
// and N2 (20-bit range).
func TierSchema(tier Tier) *dataspace.Schema {
	n := int64(tier.N())
	sch, err := dataspace.NewSchema([]dataspace.Attribute{
		{Name: "C1", Kind: dataspace.Categorical, DomainSize: tierDomain},
		{Name: "C2", Kind: dataspace.Categorical, DomainSize: tierDomain},
		{Name: "C3", Kind: dataspace.Categorical, DomainSize: tierDomain},
		{Name: "C4", Kind: dataspace.Categorical, DomainSize: tierWideDomain},
		{Name: "N1", Kind: dataspace.Numeric, Min: 0, Max: n - 1},
		{Name: "N2", Kind: dataspace.Numeric, Min: 0, Max: 1 << 20},
	})
	if err != nil {
		panic(fmt.Sprintf("datagen: tier schema: %v", err)) // static schema; cannot fail
	}
	return sch
}

// TieredSeq streams the tuples of one deterministic tiered dataset in
// descending priority order — tuple r of the iteration is rank r — without
// ever materializing the relation. It yields exactly the tuples Tiered
// materializes for the same (pattern, tier, seed) triple, bit for bit
// (Tiered is implemented on top of it), which is what lets the disk
// builder write a Tier10M store, and a crawl verify it, on a small heap.
// Each range over the sequence restarts the generator from the seed.
func TieredSeq(p Pattern, tier Tier, seed uint64) iter.Seq[dataspace.Tuple] {
	n := tier.N()
	sch := TierSchema(tier)
	return func(yield func(dataspace.Tuple) bool) {
		rng := simrand.New(seed ^ uint64(p)<<32 ^ uint64(tier)<<40)
		var zipfs []*simrand.Zipf
		if p == PatternRealistic {
			zipfs = []*simrand.Zipf{
				simrand.NewZipf(rng, tierDomain, 1.07),
				simrand.NewZipf(rng, tierDomain, 1.07),
				simrand.NewZipf(rng, tierDomain, 1.07),
				simrand.NewZipf(rng, tierWideDomain, 1.2),
			}
		}
		tail := n - n/pathoTailFrac
		for r := 0; r < n; r++ {
			t := make(dataspace.Tuple, sch.Dims())
			switch p {
			case PatternSequential:
				// Nested cycles: C1 flips every rank, C2 every 32 ranks, C3
				// every 1024 — long runs of equal values at every level.
				t[0] = int64(r%tierDomain) + 1
				t[1] = int64(r/tierDomain%tierDomain) + 1
				t[2] = int64(r/(tierDomain*tierDomain)%tierDomain) + 1
				t[3] = int64(r%tierWideDomain) + 1
				t[4] = int64(r)
				t[5] = int64(r % (1 << 20))
			case PatternRandom:
				t[0] = rng.IntRange(1, tierDomain)
				t[1] = rng.IntRange(1, tierDomain)
				t[2] = rng.IntRange(1, tierDomain)
				t[3] = rng.IntRange(1, tierWideDomain)
				t[4] = rng.IntRange(0, int64(n-1))
				t[5] = rng.IntRange(0, 1<<20)
			case PatternRealistic:
				t[0] = zipfs[0].Draw()
				t[1] = zipfs[1].Draw()
				t[2] = zipfs[2].Draw()
				t[3] = zipfs[3].Draw()
				t[4] = int64(r) // price-like: correlated with priority
				t[5] = rng.IntRange(0, 1<<20)
			case PatternPathological:
				if r >= tail {
					// The needle conjunction lives only here, at the very
					// bottom of the priority order.
					t[0], t[1], t[2] = PathoNeedle, PathoNeedle, PathoNeedle
				} else {
					for i := 0; i < 3; i++ {
						if rng.Bool(pathoNeedleProb) {
							t[i] = PathoNeedle
						} else {
							t[i] = rng.IntRange(PathoNeedle+1, tierDomain)
						}
					}
					if t[0] == PathoNeedle && t[1] == PathoNeedle && t[2] == PathoNeedle {
						t[2] = PathoNeedle + 1
					}
				}
				t[3] = rng.IntRange(1, tierWideDomain)
				t[4] = int64(r)
				t[5] = rng.IntRange(0, 1<<20)
			}
			if !yield(t) {
				return
			}
		}
	}
}

// Tiered builds one deterministic dataset of the given pattern and size:
// the same (pattern, tier, seed) triple always yields the same tuples.
// Tuple order is the intended priority order — rank r is Tuples[r] — so the
// slice can feed index.New directly. It materializes TieredSeq; prefer the
// sequence for Tier10M (see the tier's comment).
func Tiered(p Pattern, tier Tier, seed uint64) *Dataset {
	tuples := make(dataspace.Bag, 0, tier.N())
	for t := range TieredSeq(p, tier, seed) {
		tuples = append(tuples, t)
	}
	return &Dataset{
		Name:   fmt.Sprintf("%s-%s", p, tier),
		Schema: TierSchema(tier),
		Tuples: tuples,
	}
}
