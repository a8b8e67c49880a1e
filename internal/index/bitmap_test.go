package index

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"hidb/internal/datagen"
	"hidb/internal/simrand"
)

// refIntersect is the reference intersection: a pairwise sorted merge of
// rank lists, each strictly ascending (it panics otherwise).
func refIntersect(lists ...[]int32) []int32 {
	if len(lists) == 0 {
		return nil
	}
	out := slices.Clone(lists[0])
	for li, l := range lists {
		for i := 1; i < len(l); i++ {
			if l[i] <= l[i-1] {
				panic(fmt.Sprintf("refIntersect: list %d is not strictly ascending at %d", li, i))
			}
		}
		if li == 0 {
			continue
		}
		n, j := 0, 0
		for _, r := range out {
			for j < len(l) && l[j] < r {
				j++
			}
			if j < len(l) && l[j] == r {
				out[n] = r
				n++
			}
		}
		out = out[:n]
	}
	return out
}

// randomList draws a sorted duplicate-free rank list over [0, n).
func randomList(rng *simrand.RNG, n int, density float64) []int32 {
	var out []int32
	for r := 0; r < n; r++ {
		if rng.Bool(density) {
			out = append(out, int32(r))
		}
	}
	return out
}

// correlatedLists draws m sorted duplicate-free rank lists over [0, n):
// each rank is in all of them with probability common, and otherwise in
// each one independently with probability density — the shape of the
// crawl's conjunctions, whose predicates share far more ranks than
// independent draws would.
func correlatedLists(rng *simrand.RNG, m, n int, common, density float64) [][]int32 {
	out := make([][]int32, m)
	for r := 0; r < n; r++ {
		all := rng.Bool(common)
		for i := range out {
			if all || rng.Bool(density) {
				out[i] = append(out[i], int32(r))
			}
		}
	}
	return out
}

// runList builds a list of consecutive runs: runLen set ranks, gap unset,
// repeating over [0, n).
func runList(n, runLen, gap int) []int32 {
	var out []int32
	for r := 0; r < n; {
		for j := 0; j < runLen && r < n; j++ {
			out = append(out, int32(r))
			r++
		}
		r += gap
	}
	return out
}

// cardKind is the container kind the card rule picks for a block of card
// ranks: an array below arrayMaxCard, a bitmap from there up.
func cardKind(card int) uint8 {
	if card < arrayMaxCard {
		return containerArray
	}
	return containerBitmap
}

// TestContainerKindSelection checks the card rule on both sides of
// arrayMaxCard, for clustered and scattered ranks alike: placement never
// changes the kind.
func TestContainerKindSelection(t *testing.T) {
	rng := simrand.New(1)
	cases := []struct {
		name  string
		ranks []int32
	}{
		{"one run just below", runList(arrayMaxCard-1, arrayMaxCard-1, 0)},
		{"one run at", runList(arrayMaxCard, arrayMaxCard, 0)},
		{"one 5000-rank run", runList(5000, 5000, 0)},
		{"a full block", runList(1<<16, 1<<16, 0)},
		{"scatter just below", scatter(rng, arrayMaxCard-1)},
		{"scatter at", scatter(rng, arrayMaxCard)},
		{"a ~600-rank scatter", randomList(rng, 60000, 0.01)},
		{"a ~30000-rank scatter", randomList(rng, 60000, 0.5)},
	}
	for _, c := range cases {
		bm := buildRankBitmap(c.ranks)
		if len(bm.cs) != 1 || int(bm.cs[0].card) != len(c.ranks) {
			t.Fatalf("%s: built %d containers, want one of card %d", c.name, len(bm.cs), len(c.ranks))
		}
		if k, want := bm.cs[0].kind, cardKind(len(c.ranks)); k != want {
			t.Fatalf("%s: %d ranks built kind %d, want %d", c.name, len(c.ranks), k, want)
		}
	}
}

func TestRankBitmapContains(t *testing.T) {
	rng := simrand.New(3)
	// Span several 65536-rank blocks with mixed densities so both
	// container kinds appear, one of them clustered.
	list := slices.Concat(
		randomList(rng, 60000, 0.003),
		offset(runList(30000, 800, 50), 1<<16),
		offset(randomList(rng, 60000, 0.6), 1<<17),
	)
	bm := buildRankBitmap(list)
	if bm.card != len(list) {
		t.Fatalf("card = %d, want %d", bm.card, len(list))
	}
	member := make(map[int32]bool, len(list))
	for _, r := range list {
		member[r] = true
	}
	for probe := int32(0); probe < 3<<16; probe += 97 {
		key := uint16(probe >> 16)
		ki := -1
		for i, k := range bm.keys {
			if k == key {
				ki = i
			}
		}
		got := false
		if ki >= 0 {
			got = bm.cs[ki].contains(uint16(probe))
		}
		if got != member[probe] {
			t.Fatalf("contains(%d) = %v, want %v", probe, got, member[probe])
		}
	}
}

func offset(list []int32, by int32) []int32 {
	out := make([]int32, len(list))
	for i, r := range list {
		out[i] = r + by
	}
	return out
}

func TestIntersectAgainstReference(t *testing.T) {
	rng := simrand.New(5)
	n := 3 << 16 // three blocks
	// The 1M crawl's dense blocks: three ~2.5% arrays sharing ~22 ranks a
	// block, ANDed with a ~50% bitmap and a clustered ~77% one.
	crawl := append(correlatedLists(rng, 3, n, 22.0/(1<<16), 0.025),
		randomList(rng, n, 0.5), runList(n, 1000, 300))
	cases := [][][]int32{
		{randomList(rng, n, 0.03), randomList(rng, n, 0.04)},
		{randomList(rng, n, 0.3), randomList(rng, n, 0.25), randomList(rng, n, 0.2)},
		{runList(n, 1000, 300), randomList(rng, n, 0.1)},
		{runList(n, 64, 64), runList(n, 96, 32), randomList(rng, n, 0.5)},
		// Disjoint block sets: empty intersection via key skipping.
		{runList(1<<16, 100, 100), offset(runList(1<<16, 100, 100), 1<<17)},
		// A sparse driver against dense others (the probe strategy).
		{randomList(rng, n, 0.001), randomList(rng, n, 0.6), randomList(rng, n, 0.7)},
		crawl,
		// YahooLike's tail block: 4,232 ranks, 80% holding one value
		// (~3,400 ranks in ~680 runs, an array), after a full block.
		{randomList(rng, 1<<16+4232, 0.8), randomList(rng, 1<<16+4232, 0.3)},
		// A full block at least 97% dense (a bitmap) against a sparse
		// array and a half-dense bitmap.
		{randomList(rng, 1<<16, 0.98), randomList(rng, 1<<16, 0.05), randomList(rng, 1<<16, 0.5)},
	}
	words := make([]uint64, 2*bitmapWords)
	for ci, lists := range cases {
		want := refIntersect(lists...)
		bms := make([]*rankBitmap, len(lists))
		for i, l := range lists {
			bms[i] = buildRankBitmap(l)
		}
		got := intersectInto(bms, words, nil, -1)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d: intersectInto returned %d ranks, want %d (first diff around %v)",
				ci, len(got), len(want), firstDiff(got, want))
		}
		// max truncation returns exactly the prefix, whether it cuts the
		// first block or half the result, inside a later block.
		for _, max := range []int{3, len(want) / 2} {
			if len(want) <= max {
				continue
			}
			trunc := intersectInto(bms, words, nil, max)
			if !slices.Equal(trunc, want[:max]) {
				t.Fatalf("case %d: intersection truncated to %d diverges from the prefix (first diff around %v)",
					ci, max, firstDiff(trunc, want[:max]))
			}
		}
	}
	// The crawl case must exercise what it is there for: probe blocks
	// driven by one of three array containers above sparseIntersectMax,
	// the other two materialized and two bitmaps read in place, the
	// clustered one a bitmap by the card rule.
	for _, l := range crawl[:3] {
		for _, c := range buildRankBitmap(l).cs {
			if c.kind != containerArray || c.card <= sparseIntersectMax {
				t.Fatalf("crawl case built a kind-%d container of card %d, want a probe-driving array", c.kind, c.card)
			}
		}
	}
	if k := buildRankBitmap(crawl[3]).cs[0].kind; k != containerBitmap {
		t.Fatalf("crawl case's 50%% list built kind %d, want bitmap", k)
	}
	for _, c := range buildRankBitmap(crawl[4]).cs {
		if c.kind != containerBitmap {
			t.Fatalf("crawl case's clustered list built kind %d at card %d, want bitmap", c.kind, c.card)
		}
	}
	crawlBms := make([]*rankBitmap, len(crawl))
	for i, l := range crawl {
		crawlBms[i] = buildRankBitmap(l)
	}
	for _, k := range blockKernels(crawlBms) {
		if k != kernelProbe {
			t.Fatalf("crawl case ran kernel %d, want the probe", k)
		}
	}
}

// blockKernels lists the kernel intersectInto runs on each block the
// bitmaps share, in block order.
func blockKernels(bms []*rankBitmap) []int {
	var out []int
	cur := bitmapCursor{bms: bms}
	for _, ok := cur.next(); ok; _, ok = cur.next() {
		small := cur.smallestContainer()
		out = append(out, blockKernel(&bms[small].cs[cur.idx[small]]))
		cur.advance()
	}
	return out
}

// TestIntersectKernels runs each kernel, and each probe specialisation,
// on two blocks of one shape: whole and truncated against refIntersect,
// with garbage in both scratch halves, allocating nothing. Every block of
// a row must run the row's kernel, and a probe block must read exactly
// inPlace bitmap containers in place. Cards are the 1M crawl's: arrays of
// ~1,600 ranks, a needle value's ~1/6-dense bitmap.
func TestIntersectKernels(t *testing.T) {
	rng := simrand.New(11)
	const n = 2 << 16
	arr := func() []int32 { return randomList(rng, n, 1600.0/(1<<16)) }
	bmp := func() []int32 { return randomList(rng, n, 1.0/6) }
	rows := []struct {
		name    string
		lists   [][]int32
		kernel  int
		inPlace int
	}{
		{"sparse", [][]int32{randomList(rng, n, 0.003), arr(), bmp()}, kernelSparse, 0},
		{"probe, single bitmap", [][]int32{arr()}, kernelProbe, 0},
		{"probe, 0 in place", [][]int32{arr(), arr(), arr()}, kernelProbe, 0},
		{"probe, 1 in place", [][]int32{arr(), arr(), bmp()}, kernelProbe, 1},
		{"probe, 2 in place", [][]int32{arr(), bmp(), bmp()}, kernelProbe, 2},
		{"probe, 2 in place and scratch", [][]int32{arr(), arr(), bmp(), bmp()}, kernelProbe, 2},
		// 256 runs of 8 per block: 2,048 clustered ranks, an array.
		{"probe, clustered partner", [][]int32{arr(), runList(n, 8, 248)}, kernelProbe, 0},
		// A 1,024-rank clustered array drives the probe against a
		// ~3,300-rank array and a bitmap.
		{"probe, clustered driver", [][]int32{runList(n, 4, 252), randomList(rng, n, 0.05), bmp()}, kernelProbe, 1},
		{"dense, bitmaps", [][]int32{bmp(), randomList(rng, n, 0.5)}, kernelDense, 0},
	}
	// Every list also holds ~22 shared ranks per block, like the crawl's.
	shared := randomList(rng, n, 22.0/(1<<16))
	words := make([]uint64, 2*bitmapWords)
	for _, row := range rows {
		bms := make([]*rankBitmap, len(row.lists))
		for i, l := range row.lists {
			row.lists[i] = mergeUnique(l, shared)
			bms[i] = buildRankBitmap(row.lists[i])
		}
		blocks := 0
		cur := bitmapCursor{bms: bms}
		for _, ok := cur.next(); ok; _, ok = cur.next() {
			blocks++
			small := cur.smallestContainer()
			if k := blockKernel(&bms[small].cs[cur.idx[small]]); k != row.kernel {
				t.Fatalf("%s: block ran kernel %d, want %d", row.name, k, row.kernel)
			}
			inPlace := 0
			for i := range bms {
				if i != small && bms[i].cs[cur.idx[i]].kind == containerBitmap {
					inPlace++
				}
			}
			if row.kernel == kernelProbe && inPlace != row.inPlace {
				t.Fatalf("%s: probe reads %d bitmaps in place, want %d", row.name, inPlace, row.inPlace)
			}
			cur.advance()
		}
		if blocks != 2 {
			t.Fatalf("%s: %d shared blocks, want 2", row.name, blocks)
		}
		want := refIntersect(row.lists...)
		if len(want) < 8 {
			t.Fatalf("%s: only %d common ranks; the row tests too little", row.name, len(want))
		}
		for _, max := range []int{-1, 3, len(want) / 2} {
			for i := range words {
				words[i] = rng.Uint64()
			}
			got := intersectInto(bms, words, nil, max)
			wantMax := want
			if max >= 0 {
				wantMax = want[:max]
			}
			if !slices.Equal(got, wantMax) {
				t.Fatalf("%s: intersectInto(max %d) returned %d ranks, want %d (first diff around %v)",
					row.name, max, len(got), len(wantMax), firstDiff(got, wantMax))
			}
		}
		dst := make([]int32, 0, len(want))
		if allocs := testing.AllocsPerRun(5, func() { dst = intersectInto(bms, words, dst[:0], -1) }); allocs != 0 {
			t.Fatalf("%s: intersectInto made %.1f allocations, want 0", row.name, allocs)
		}
	}
}

func firstDiff(a, b []int32) [2]int32 {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return [2]int32{a[i], b[i]}
		}
	}
	return [2]int32{-1, -1}
}

// scatter draws card distinct block-local offsets, ascending: it sets
// random offsets into a 65536-bit set until card are set, then reads the
// set back in order.
func scatter(rng *simrand.RNG, card int) []int32 {
	var set [bitmapWords]uint64
	for n := 0; n < card; {
		v := rng.Intn(1 << 16)
		if bit := uint64(1) << (v & 63); set[v>>6]&bit == 0 {
			set[v>>6] |= bit
			n++
		}
	}
	out := make([]int32, 0, card)
	for wi, w := range set {
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(wi<<6|bits.TrailingZeros64(w)))
		}
	}
	return out
}

func TestAndWordsAllKinds(t *testing.T) {
	rng := simrand.New(7)
	lists := []struct {
		name  string
		ranks []int32
		kind  uint8
	}{
		{"array", randomList(rng, 1<<16, 0.01), containerArray},
		{"array just off", scatter(rng, sparseIntersectMax+1), containerArray},
		{"array full", scatter(rng, arrayMaxCard-1), containerArray},
		{"bitmap", randomList(rng, 1<<16, 0.5), containerBitmap},
		{"clustered bitmap", runList(1<<16, 500, 200), containerBitmap},
		{"clustered array", runList(1<<16, 8, 248), containerArray},
	}
	for _, l := range lists {
		if k := buildContainer(l.ranks).kind; k != l.kind {
			t.Fatalf("%s built kind %d, want %d", l.name, k, l.kind)
		}
	}
	words := make([]uint64, 2*bitmapWords)
	ref := make([]uint64, bitmapWords)
	tmp := make([]uint64, bitmapWords)
	for _, a := range lists {
		for _, b := range lists {
			ca := buildContainer(a.ranks)
			cb := buildContainer(b.ranks)
			// Garbage in both halves: writeWords must overwrite the
			// first, andWords must not read stale scratch from the second.
			for i := range words {
				words[i] = rng.Uint64()
			}
			ca.writeWords(words)
			cb.andWords(words[:bitmapWords], words[bitmapWords:])
			// Reference: materialize both and AND.
			ca.writeWords(ref)
			cb.writeWords(tmp)
			for i := range ref {
				ref[i] &= tmp[i]
			}
			if !slices.Equal(words[:bitmapWords], ref) {
				t.Fatalf("andWords(%s over %s) diverges from materialized AND", b.name, a.name)
			}
		}
	}
}

// Spec codes of a fuzz-built block beyond the container kinds (codes 0
// and 1, the kind the block must build): a clustered list, whose kind the
// card rule picks, and an empty block.
const (
	fuzzClustered = 2
	fuzzAbsent    = 3
)

// fuzzLists builds one rank list per spec byte (at most 4) over blocks
// 65536-rank blocks. Bits 2j..2j+1 of a spec byte pick block j's code:
// an array or a clustered list of runs of random card (half the time at
// or below sparseIntersectMax, so every kernel runs), a 7–90% bitmap (the
// crawl's needle bitmaps are ~1/6 dense), or no ranks at all. A seed with
// its top bit set draws every array at the 1M crawl's 1,024–2,047 ranks.
// Every list also holds a block's shared ranks unless its block is
// clustered or absent, so intersections are not all empty.
func fuzzLists(spec []byte, blocks int, seed uint64) [][]int32 {
	rng := simrand.New(seed)
	shared := make([][]int32, blocks)
	for j := range shared {
		shared[j] = scatter(rng, 1+rng.Intn(64))
	}
	lists := make([][]int32, min(len(spec), 4))
	for i := range lists {
		var l []int32
		for j := 0; j < blocks; j++ {
			base := int32(j) << 16
			var block []int32
			switch (spec[i] >> (2 * j)) & 3 {
			case containerArray:
				// The margins leave room for the ≤ 64 shared ranks.
				var card int
				switch {
				case seed>>63 == 1:
					card = 1024 + rng.Intn(1024-64)
				case rng.Bool(0.5):
					card = 1 + rng.Intn(sparseIntersectMax)
				default:
					card = sparseIntersectMax + 1 + rng.Intn(arrayMaxCard-sparseIntersectMax-128)
				}
				block = mergeUnique(scatter(rng, card), shared[j])
			case containerBitmap:
				// At least 7% of 65536 stays well above arrayMaxCard.
				block = mergeUnique(randomList(rng, 1<<16, 0.07+0.83*rng.Float64()), shared[j])
			case fuzzClustered:
				// Half the time a few short runs (a sparse-path block).
				runs, span := 1<<16, 3000
				if rng.Bool(0.5) {
					runs, span = 1+rng.Intn(8), 30
				}
				for v := rng.Intn(500); v < 1<<16 && runs > 0; runs-- {
					last := min(v+2+rng.Intn(span), 1<<16-1)
					for r := v; r <= last; r++ {
						block = append(block, int32(r))
					}
					v = last + 2 + rng.Intn(3000)
				}
			}
			for _, r := range block {
				l = append(l, base|r)
			}
		}
		lists[i] = l
	}
	return lists
}

// mergeUnique merges two strictly ascending lists, dropping duplicates.
func mergeUnique(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// FuzzIntersect checks intersectInto, whole and truncated, against
// refIntersect on 1–4 fuzz-built lists over 2–4 blocks, with garbage in
// the scratch words before every call. Every block must build the kind
// the card rule picks, and an array or bitmap block the kind its spec
// code names. The seed corpus puts every ordered pair of array, bitmap and
// clustered blocks in every block, and runs the 1M crawl's block shapes
// (A = array, B = bitmap) with 1,024–2,047-rank arrays.
func FuzzIntersect(f *testing.F) {
	all := func(code byte) byte { return code | code<<2 | code<<4 | code<<6 }
	kinds := []byte{containerArray, containerBitmap, fuzzClustered}
	for _, a := range kinds {
		for _, b := range kinds {
			// Two seeds per pair: different block counts and array cards.
			for _, seed := range []uint64{uint64(3*a + b), uint64(3*a + b + 10)} {
				f.Add([]byte{all(a), all(b)}, seed)
			}
		}
	}
	f.Add([]byte{all(containerArray)}, uint64(1))
	f.Add([]byte{all(containerArray), all(containerArray), all(containerArray), all(containerBitmap)}, uint64(2))
	f.Add([]byte{0b00011011, 0b11100100, 0b01100001}, uint64(3))
	f.Add([]byte{fuzzAbsent | containerBitmap<<4 | fuzzClustered<<6, all(containerArray)}, uint64(5))
	f.Add([]byte{containerArray | fuzzAbsent<<2 | containerArray<<4, fuzzAbsent | containerArray<<2 | fuzzClustered<<4}, uint64(8))
	a, b := all(containerArray), all(containerBitmap)
	for i, spec := range [][]byte{{a}, {a, a}, {a, a, b}, {a, b, b}, {a, a, a}} {
		f.Add(spec, uint64(1)<<63|uint64(i))
	}
	f.Fuzz(func(t *testing.T, spec []byte, seed uint64) {
		if len(spec) == 0 {
			return
		}
		blocks := 2 + int(seed%3)
		lists := fuzzLists(spec, blocks, seed)
		bms := make([]*rankBitmap, len(lists))
		for i, l := range lists {
			if len(l) == 0 {
				return // a value with no ranks has no bitmap
			}
			bms[i] = buildRankBitmap(l)
			for ci, key := range bms[i].keys {
				c := &bms[i].cs[ci]
				if want := cardKind(int(c.card)); c.kind != want {
					t.Fatalf("list %d block %d built kind %d at card %d, the card rule picks %d", i, key, c.kind, c.card, want)
				}
				if code := (spec[i] >> (2 * key)) & 3; code != fuzzClustered && c.kind != code {
					t.Fatalf("list %d block %d built kind %d, spec asked for %d", i, key, c.kind, code)
				}
			}
		}
		want := refIntersect(lists...)
		rng := simrand.New(seed ^ 0x9e3779b97f4a7c15)
		words := make([]uint64, 2*bitmapWords)
		garbage := func() {
			for i := range words {
				words[i] = rng.Uint64()
			}
		}
		garbage()
		if got := intersectInto(bms, words, nil, -1); !slices.Equal(got, want) {
			t.Fatalf("intersectInto returned %d ranks, want %d (first diff around %v)",
				len(got), len(want), firstDiff(got, want))
		}
		garbage()
		max := rng.Intn(len(want) + 1)
		if got := intersectInto(bms, words, nil, max); !slices.Equal(got, want[:max]) {
			t.Fatalf("intersection truncated to %d diverges from the prefix (first diff around %v)",
				max, firstDiff(got, want[:max]))
		}
	})
}

func TestBuildRankBitmapMatchesPostingList(t *testing.T) {
	// End-to-end: a store's bitmap index must agree with its posting lists.
	s := tierStore(t, datagen.PatternRandom, 61)
	words := make([]uint64, 2*bitmapWords)
	for i := 0; i < 3; i++ {
		for v, list := range s.post[i] {
			bm := s.bitmaps[i].get(v)
			if bm == nil {
				t.Fatalf("attr %d value %d: posting list exists but bitmap missing", i, v)
			}
			got := intersectInto([]*rankBitmap{bm}, words, nil, -1)
			if !slices.Equal(got, list) {
				t.Fatalf("attr %d value %d: bitmap enumerates %d ranks, posting list has %d",
					i, v, len(got), len(list))
			}
		}
		if s.bitmaps[i].get(-99) != nil {
			t.Fatalf("attr %d: absent value returned a bitmap", i)
		}
	}
	var nilIdx *bitmapIndex
	if nilIdx.get(1) != nil {
		t.Fatal("nil bitmapIndex.get should return nil")
	}
}
