// Roaring-style bitmap indexes over rank space.
//
// For a low-cardinality categorical attribute, the rank-ascending posting
// list of each value is mirrored as a rankBitmap: the 32-bit rank space is
// split into 65536-rank blocks, and each non-empty block is stored as one of
// two containers — a sorted array of 16-bit offsets below arrayMaxCard
// ranks, a 1024-word bitmap from there up. The server gives every tuple a
// random priority, so a value's ranks are a random subset of rank space.
// There Roaring's third kind, [start,last] runs, is smaller than both only
// for a value holding more than ~97% of a full block (or half of a short
// tail block), so it is left out: a clustered list, such as the
// Sequential tier's, is stored by its cardinality like any other.
//
// The payoff is the intersection path: the bitmaps of 2, 3 or more
// equality predicates are intersected block by block over the blocks they
// all share, and the result enumerates in ascending rank order, which is
// exactly the priority order Select must return. Each block runs one of
// three kernels, chosen from its smallest container (blockKernel), the way
// Roaring picks its kernels pairwise from the containers' kinds and cards:
//
//   - sparse (at most sparseIntersectMax ranks): iterate that container and
//     look each offset up in the others;
//   - probe (a larger array): the other containers become word sets, each
//     bitmap container read in place and the other array containers
//     materialized into one 1024-word scratch half (branch-free, like
//     Roaring's array-to-bitmap conversion), and each of the array's
//     offsets costs one word load per set — no clear, AND or bit scan of
//     its own 1024 words;
//   - dense (a bitmap, so every container is one): the first bitmap is
//     copied into 1024 scratch words and each further one is ANDed in word
//     by word — 64 ranks per AND — before one bit scan of the result.
package index

import (
	"math/bits"
	"slices"
	"sort"
)

// Container kinds.
const (
	containerArray uint8 = iota
	containerBitmap
)

// bitmapWords is the word count of a dense container: 65536 ranks / 64.
const bitmapWords = 1 << 10

// arrayMaxCard is the cardinality from which a block is a bitmap rather
// than an array (the roaring threshold: 4096 × 2 bytes = 8 KiB, the size of
// a full bitmap container).
const arrayMaxCard = 1 << 12

// container holds one 65536-rank block of a rankBitmap: an array below
// arrayMaxCard ranks, a bitmap from there up.
type container struct {
	kind uint8
	// card is the number of ranks in the block, in [1, 65536].
	card int32
	// arr lists the block-local rank offsets ascending (containerArray).
	arr []uint16
	// words is the 1024-word dense bitmap (containerBitmap).
	words []uint64
}

// contains reports whether block-local offset v is in the container.
func (c *container) contains(v uint16) bool {
	if c.kind == containerBitmap {
		return c.words[v>>6]&(1<<(v&63)) != 0
	}
	i := sort.Search(len(c.arr), func(i int) bool { return c.arr[i] >= v })
	return i < len(c.arr) && c.arr[i] == v
}

// writeWords materializes the container into dst, a bitmapWords-long word
// slice, overwriting it.
func (c *container) writeWords(dst []uint64) {
	if c.kind == containerBitmap {
		copy(dst[:bitmapWords], c.words)
		return
	}
	w := (*[bitmapWords]uint64)(dst)
	clear(w[:])
	for _, v := range c.arr {
		w[v>>6] |= 1 << (v & 63)
	}
}

// andWords intersects the container into dst in place (dst &= c). tmp is
// a second bitmapWords-long scratch half: an array container is first set
// into it bit by bit and then ANDed word by word, so no step branches on
// the array's ranks. At the cards that reach this path an array holds ~1.6
// ranks per word, and a branch per word boundary mispredicts constantly.
func (c *container) andWords(dst, tmp []uint64) {
	dst = dst[:bitmapWords]
	if c.kind == containerBitmap {
		andInto(dst, c.words)
		return
	}
	c.writeWords(tmp)
	andInto(dst, tmp)
}

// andInto sets dst[i] &= src[i] for every word of dst.
func andInto(dst, src []uint64) {
	src = src[:len(dst)]
	for i, w := range src {
		dst[i] &= w
	}
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

// buildContainer converts one block's ranks (global ranks sharing one
// high-16 key, ascending) into an array below arrayMaxCard ranks and a
// bitmap from there up.
func buildContainer(ranks []int32) container {
	card := len(ranks)
	if card < arrayMaxCard {
		c := container{kind: containerArray, card: int32(card), arr: make([]uint16, card)}
		for i, r := range ranks {
			c.arr[i] = uint16(r)
		}
		return c
	}
	c := container{kind: containerBitmap, card: int32(card), words: make([]uint64, bitmapWords)}
	for _, r := range ranks {
		v := uint16(r)
		c.words[v>>6] |= 1 << (v & 63)
	}
	return c
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
// a block intersection iterates that container looking its offsets up in
// the others, instead of building any 1024-word bitmap.
const sparseIntersectMax = 256

// Block kernels of intersectInto.
const (
	kernelSparse = iota // appendSparse
	kernelProbe         // appendProbe
	kernelDense         // andBlock, then a bit scan
)

// blockKernel picks the kernel of a block whose smallest container is sc:
// sparse or probe for an array, dense for a bitmap. A bitmap holds at
// least arrayMaxCard ranks, far above sparseIntersectMax, and when the
// smallest container is one, every container of the block is.
func blockKernel(sc *container) int {
	switch {
	case sc.kind == containerBitmap:
		return kernelDense
	case sc.card <= sparseIntersectMax:
		return kernelSparse
	default:
		return kernelProbe
	}
}

// intersectInto appends the ranks common to all bitmaps to dst in
// ascending order and returns the extended slice. max >= 0 truncates the
// result to max ranks (the limit+1 early exit — valid only when no
// residual filtering follows); max < 0 materializes the full intersection.
// words must be a 2*bitmapWords-long scratch slice (see andBlock). The
// append-into-a-buffer shape (rather than a per-rank callback) is
// deliberate: a callback would capture the caller's accumulator and drag it
// to the heap, breaking the one-allocation Select contract.
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
		sc := &bms[small].cs[cur.idx[small]]
		switch blockKernel(sc) {
		case kernelSparse:
			dst = appendSparse(bms, cur.idx, small, sc.arr, base, dst)
		case kernelProbe:
			dst = appendProbe(bms, cur.idx, small, sc.arr, words, base, dst)
		default:
			for wi, w := range andBlock(bms, cur.idx, words) {
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

// andBlock materializes the intersection of every bitmap's current
// container (idx) into words' first bitmapWords half and returns that half;
// the second half is andWords' scratch, which bitmap containers leave
// untouched. It is intersectInto's dense kernel.
func andBlock(bms []*rankBitmap, idx []int, words []uint64) []uint64 {
	dst, tmp := words[:bitmapWords], words[bitmapWords:2*bitmapWords]
	bms[0].cs[idx[0]].writeWords(dst)
	for i := 1; i < len(bms); i++ {
		bms[i].cs[idx[i]].andWords(dst, tmp)
	}
	return dst
}

// appendProbe is the probe kernel: for each offset v of arr, the array
// container of the small-th bitmap, that every other bitmap's current
// container (idx) holds, it appends base|v to dst, ascending. Bitmap
// containers are read in place. The other array containers are intersected
// into words' first bitmapWords half, the second half being andWords'
// scratch, and that half is read as one more word set. The one-set loop
// is branch-free: it stores every offset and advances past it by its hit
// bit, so dst grows by len(arr) for the block first. It computes the
// memoized parent nodes (prefix.go), an array probed against a needle
// value's bitmap, where about one offset in six hits and a hit branch
// would mispredict constantly.
func appendProbe(bms []*rankBitmap, idx []int, small int, arr []uint16, words []uint64, base int32, dst []int32) []int32 {
	var setArr [bitmapMaxDims]*[bitmapWords]uint64
	sets := setArr[:0]
	scratch := false
	for i := range bms {
		c := &bms[i].cs[idx[i]]
		switch {
		case i == small:
		case c.kind == containerBitmap:
			sets = append(sets, (*[bitmapWords]uint64)(c.words))
		case !scratch:
			c.writeWords(words)
			sets = append(sets, (*[bitmapWords]uint64)(words))
			scratch = true
		default:
			c.andWords(words[:bitmapWords], words[bitmapWords:])
		}
	}
	switch len(sets) {
	case 1:
		s := sets[0]
		n := len(dst)
		dst = slices.Grow(dst, len(arr))[:n+len(arr)]
		for _, v := range arr {
			dst[n] = base | int32(v)
			n += int(s[v>>6] >> (v & 63) & 1)
		}
		dst = dst[:n]
	case 2:
		s0, s1 := sets[0], sets[1]
		for _, v := range arr {
			if s0[v>>6]&s1[v>>6]&(1<<(v&63)) != 0 {
				dst = append(dst, base|int32(v))
			}
		}
	default: // none (a single-bitmap plan) or three and more
	next:
		for _, v := range arr {
			for _, s := range sets {
				if s[v>>6]&(1<<(v&63)) == 0 {
					continue next
				}
			}
			dst = append(dst, base|int32(v))
		}
	}
	return dst
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

// appendSparse intersects one block by iterating arr, the array container
// of the small-th bitmap, and looking each offset up in the others,
// appending surviving ranks to dst ascending.
func appendSparse(bms []*rankBitmap, idx []int, small int, arr []uint16, base int32, dst []int32) []int32 {
	for _, v := range arr {
		if probeOthers(bms, idx, small, v) {
			dst = append(dst, base|int32(v))
		}
	}
	return dst
}
