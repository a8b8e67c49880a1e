// Roaring-style bitmap indexes over rank space.
//
// For a low-cardinality categorical attribute, the rank-ascending posting
// list of each value is mirrored as a rankBitmap: the 32-bit rank space is
// split into 65536-rank blocks, and each non-empty block is stored as one of
// three containers — a sorted array of 16-bit offsets (sparse blocks), a
// 1024-word bitmap (dense blocks), or a list of [start,last] runs (clustered
// blocks). The representation is chosen per block by serialized size, the
// classic roaring heuristic.
//
// The payoff is the intersection path: ANDing the bitmaps of 2, 3 or more
// equality predicates is a word-parallel loop over the blocks both sides
// share — 64 ranks per AND — instead of a per-candidate merge or probe, and
// the result enumerates in ascending rank order, which is exactly the
// priority order Select must return.
package index

import (
	"math/bits"
	"sort"
)

// Container kinds.
const (
	containerArray uint8 = iota
	containerBitmap
	containerRun
)

// bitmapWords is the word count of a dense container: 65536 ranks / 64.
const bitmapWords = 1 << 10

// arrayMaxCard is the cardinality above which a sparse container converts
// to a dense bitmap (the roaring threshold: 4096 × 2 bytes = 8 KiB, the
// size of a full bitmap container).
const arrayMaxCard = 1 << 12

// rankRun is one maximal run of consecutive ranks, inclusive on both ends.
type rankRun struct{ start, last uint16 }

// container holds one 65536-rank block of a rankBitmap in whichever of the
// three representations serializes smallest.
type container struct {
	kind uint8
	// card is the number of ranks in the block, in [1, 65536].
	card int32
	// arr lists the block-local rank offsets ascending (containerArray).
	arr []uint16
	// words is the 1024-word dense bitmap (containerBitmap).
	words []uint64
	// runs lists maximal runs ascending (containerRun).
	runs []rankRun
}

// contains reports whether block-local offset v is in the container.
func (c *container) contains(v uint16) bool {
	switch c.kind {
	case containerArray:
		i := sort.Search(len(c.arr), func(i int) bool { return c.arr[i] >= v })
		return i < len(c.arr) && c.arr[i] == v
	case containerBitmap:
		return c.words[v>>6]&(1<<(v&63)) != 0
	default:
		i := sort.Search(len(c.runs), func(i int) bool { return c.runs[i].last >= v })
		return i < len(c.runs) && c.runs[i].start <= v
	}
}

// writeWords materializes the container into dst, a bitmapWords-long word
// slice, overwriting it.
func (c *container) writeWords(dst []uint64) {
	dst = dst[:bitmapWords]
	switch c.kind {
	case containerBitmap:
		copy(dst, c.words)
	case containerArray:
		clear(dst)
		for _, v := range c.arr {
			dst[v>>6] |= 1 << (v & 63)
		}
	default:
		clear(dst)
		for _, r := range c.runs {
			setRange(dst, r.start, r.last)
		}
	}
}

// andWords intersects the container into dst in place (dst &= c).
func (c *container) andWords(dst []uint64) {
	dst = dst[:bitmapWords]
	switch c.kind {
	case containerBitmap:
		for i, w := range c.words {
			dst[i] &= w
		}
	case containerArray:
		// Keep only dst bits that the array also holds: walk the array
		// once, building the kept words on the fly.
		var cur uint64
		wi := -1
		for _, v := range c.arr {
			w := int(v >> 6)
			if w != wi {
				if wi >= 0 {
					dst[wi] &= cur
				}
				for j := wi + 1; j < w; j++ {
					dst[j] = 0
				}
				wi, cur = w, 0
			}
			cur |= 1 << (v & 63)
		}
		if wi >= 0 {
			dst[wi] &= cur
		}
		for j := wi + 1; j < bitmapWords; j++ {
			dst[j] = 0
		}
	default:
		// Zero everything outside the runs; inside a run dst is kept.
		prev := -1
		for _, r := range c.runs {
			clearRange(dst, prev+1, int(r.start)-1)
			prev = int(r.last)
		}
		clearRange(dst, prev+1, (bitmapWords<<6)-1)
	}
}

// setRange sets bits [start, last] (block-local, inclusive) in words.
func setRange(words []uint64, start, last uint16) {
	sw, lw := int(start>>6), int(last>>6)
	sm := ^uint64(0) << (start & 63)
	lm := ^uint64(0) >> (63 - last&63)
	if sw == lw {
		words[sw] |= sm & lm
		return
	}
	words[sw] |= sm
	for i := sw + 1; i < lw; i++ {
		words[i] = ^uint64(0)
	}
	words[lw] |= lm
}

// clearRange zeroes bits [start, last] (block-local, inclusive) in words.
// An inverted range clears nothing.
func clearRange(words []uint64, start, last int) {
	if start > last {
		return
	}
	sw, lw := start>>6, last>>6
	sm := ^(^uint64(0) << (start & 63))
	lm := ^(^uint64(0) >> (63 - last&63))
	if sw == lw {
		words[sw] &= sm | lm
		return
	}
	words[sw] &= sm
	for i := sw + 1; i < lw; i++ {
		words[i] = 0
	}
	words[lw] &= lm
}

// rankBitmap is the roaring-style bitmap of one categorical value's ranks:
// ascending block keys (rank >> 16) with one container per non-empty block.
type rankBitmap struct {
	keys []uint16
	cs   []container
	card int
}

// buildRankBitmap converts a rank-ascending posting list into containers.
func buildRankBitmap(list []int32) *rankBitmap {
	b := &rankBitmap{card: len(list)}
	for lo := 0; lo < len(list); {
		key := uint16(list[lo] >> 16)
		hi := lo
		for hi < len(list) && uint16(list[hi]>>16) == key {
			hi++
		}
		b.keys = append(b.keys, key)
		b.cs = append(b.cs, buildContainer(list[lo:hi]))
		lo = hi
	}
	return b
}

// buildContainer picks the smallest representation for one block's ranks
// (global ranks sharing one high-16 key, ascending).
func buildContainer(ranks []int32) container {
	// Count maximal runs in one pass.
	runs := 1
	for i := 1; i < len(ranks); i++ {
		if ranks[i] != ranks[i-1]+1 {
			runs++
		}
	}
	card := len(ranks)
	runBytes, arrBytes, bmpBytes := 4*runs, 2*card, 8*bitmapWords
	if card >= arrayMaxCard {
		arrBytes = bmpBytes + 1 // arrays beyond the threshold are never used
	}
	switch {
	case runBytes < arrBytes && runBytes < bmpBytes:
		c := container{kind: containerRun, card: int32(card), runs: make([]rankRun, 0, runs)}
		start := uint16(ranks[0])
		prev := start
		for _, r := range ranks[1:] {
			v := uint16(r)
			if v != prev+1 {
				c.runs = append(c.runs, rankRun{start, prev})
				start = v
			}
			prev = v
		}
		c.runs = append(c.runs, rankRun{start, prev})
		return c
	case arrBytes <= bmpBytes:
		c := container{kind: containerArray, card: int32(card), arr: make([]uint16, card)}
		for i, r := range ranks {
			c.arr[i] = uint16(r)
		}
		return c
	default:
		c := container{kind: containerBitmap, card: int32(card), words: make([]uint64, bitmapWords)}
		for _, r := range ranks {
			v := uint16(r)
			c.words[v>>6] |= 1 << (v & 63)
		}
		return c
	}
}

// bitmapIndex maps a categorical attribute's values to their rank bitmaps.
type bitmapIndex struct {
	m map[int64]*rankBitmap
}

// get returns the value's bitmap, nil when the value is absent.
func (bi *bitmapIndex) get(v int64) *rankBitmap {
	if bi == nil {
		return nil
	}
	return bi.m[v]
}

// bitmapCursor walks the common block keys of several rankBitmaps.
type bitmapCursor struct {
	bms []*rankBitmap
	idx []int
}

// next advances to the next block key present in every bitmap, returning the
// key and the per-bitmap container indexes (aliased, valid until the next
// call). ok=false means the intersection is exhausted.
func (c *bitmapCursor) next() (key uint16, ok bool) {
	if len(c.bms) == 0 {
		return 0, false
	}
	if c.idx == nil {
		c.idx = make([]int, len(c.bms))
	}
	for {
		if c.idx[0] >= len(c.bms[0].keys) {
			return 0, false
		}
		target := c.bms[0].keys[c.idx[0]]
		matched := true
		for i := 1; i < len(c.bms); i++ {
			keys := c.bms[i].keys
			j := c.idx[i]
			for j < len(keys) && keys[j] < target {
				j++
			}
			c.idx[i] = j
			if j == len(keys) {
				return 0, false
			}
			if keys[j] != target {
				// Restart from the larger key.
				if keys[j] > target {
					k := c.idx[0]
					for k < len(c.bms[0].keys) && c.bms[0].keys[k] < keys[j] {
						k++
					}
					c.idx[0] = k
				}
				matched = false
				break
			}
		}
		if matched {
			return target, true
		}
	}
}

// advance moves every cursor past the current common key. Call after
// processing the containers of a matched key.
func (c *bitmapCursor) advance() {
	for i := range c.idx {
		c.idx[i]++
	}
}

// smallestContainer returns the index of the lowest-cardinality container at
// the current common key.
func (c *bitmapCursor) smallestContainer() int {
	best, bestCard := 0, c.bms[0].cs[c.idx[0]].card
	for i := 1; i < len(c.bms); i++ {
		if card := c.bms[i].cs[c.idx[i]].card; card < bestCard {
			best, bestCard = i, card
		}
	}
	return best
}

// sparseIntersectMax is the smallest-container cardinality at or below which
// a block intersection iterates that container probing the others, instead
// of materializing and ANDing full 1024-word bitmaps.
const sparseIntersectMax = 256

// intersectInto appends the ranks common to all bitmaps to dst in
// ascending order and returns the extended slice. max >= 0 truncates the
// result to max ranks (the limit+1 early exit — valid only when no
// residual filtering follows); max < 0 materializes the full intersection.
// words must be a bitmapWords-long scratch slice. The append-into-a-buffer
// shape (rather than a per-rank callback) is deliberate: a callback would
// capture the caller's accumulator and drag it to the heap, breaking the
// one-allocation Select contract.
func intersectInto(bms []*rankBitmap, words []uint64, dst []int32, max int) []int32 {
	var idxArr [bitmapMaxDims]int
	cur := bitmapCursor{bms: bms}
	if len(bms) <= len(idxArr) {
		cur.idx = idxArr[:len(bms)]
	}
	for {
		key, ok := cur.next()
		if !ok {
			return dst
		}
		base := int32(key) << 16
		small := cur.smallestContainer()
		if sc := &bms[small].cs[cur.idx[small]]; sc.card <= sparseIntersectMax {
			// Sparse block: iterate the smallest container, probe the rest.
			dst = appendSparse(bms, cur.idx, small, sc, base, dst)
		} else {
			bms[0].cs[cur.idx[0]].writeWords(words)
			for i := 1; i < len(bms); i++ {
				bms[i].cs[cur.idx[i]].andWords(words)
			}
			for wi, w := range words {
				for w != 0 {
					b := bits.TrailingZeros64(w)
					w &= w - 1
					dst = append(dst, base|int32(wi)<<6|int32(b))
				}
			}
		}
		if max >= 0 && len(dst) >= max {
			return dst[:max]
		}
		cur.advance()
	}
}

// probeOthers reports whether block-local offset v is present in every
// bitmap's current container except the small-th (the one being iterated).
func probeOthers(bms []*rankBitmap, idx []int, small int, v uint16) bool {
	for i := range bms {
		if i == small {
			continue
		}
		if !bms[i].cs[idx[i]].contains(v) {
			return false
		}
	}
	return true
}

// appendSparse intersects one block by iterating its smallest container and
// probing the others, appending surviving ranks to dst ascending.
func appendSparse(bms []*rankBitmap, idx []int, small int, sc *container, base int32, dst []int32) []int32 {
	switch sc.kind {
	case containerArray:
		for _, v := range sc.arr {
			if probeOthers(bms, idx, small, v) {
				dst = append(dst, base|int32(v))
			}
		}
	case containerRun:
		for _, r := range sc.runs {
			for v := int32(r.start); v <= int32(r.last); v++ {
				if probeOthers(bms, idx, small, uint16(v)) {
					dst = append(dst, base|v)
				}
			}
		}
	default:
		for wi, w := range sc.words {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				v := uint16(wi<<6 | b)
				if probeOthers(bms, idx, small, v) {
					dst = append(dst, base|int32(v))
				}
			}
		}
	}
	return dst
}

// countSparse intersects one block by iterating its smallest container and
// probing the others, returning the survivor count.
func countSparse(bms []*rankBitmap, idx []int, small int, sc *container) int {
	c := 0
	switch sc.kind {
	case containerArray:
		for _, v := range sc.arr {
			if probeOthers(bms, idx, small, v) {
				c++
			}
		}
	case containerRun:
		for _, r := range sc.runs {
			for v := int32(r.start); v <= int32(r.last); v++ {
				if probeOthers(bms, idx, small, uint16(v)) {
					c++
				}
			}
		}
	default:
		for wi, w := range sc.words {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				if probeOthers(bms, idx, small, uint16(wi<<6|b)) {
					c++
				}
			}
		}
	}
	return c
}

// intersectCount returns |AND of all bitmaps| without enumerating: dense
// blocks are popcounted word-parallel. words must be a bitmapWords-long
// scratch slice.
func intersectCount(bms []*rankBitmap, words []uint64) int {
	var idxArr [bitmapMaxDims]int
	cur := bitmapCursor{bms: bms}
	if len(bms) <= len(idxArr) {
		cur.idx = idxArr[:len(bms)]
	}
	total := 0
	for {
		_, ok := cur.next()
		if !ok {
			return total
		}
		small := cur.smallestContainer()
		if sc := &bms[small].cs[cur.idx[small]]; sc.card <= sparseIntersectMax {
			total += countSparse(bms, cur.idx, small, sc)
		} else {
			bms[0].cs[cur.idx[0]].writeWords(words)
			for i := 1; i < len(bms); i++ {
				bms[i].cs[cur.idx[i]].andWords(words)
			}
			for _, w := range words {
				total += bits.OnesCount64(w)
			}
		}
		cur.advance()
	}
}
