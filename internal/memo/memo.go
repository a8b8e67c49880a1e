// Package memo is the reusable answer-memo core of the server stack: a
// sharded, concurrency-safe map from a compact binary key to an immutable
// value, with an optional bounded-memory LRU, plus a per-key single-flight
// (Flight) whose leadership survives a failed leader.
//
// One implementation backs both answer memos in the repository: the
// journal (unbounded and private — to one session's token, or to one
// in-process crawl) and the fleet-wide shared answer cache hiddendb.Shared
// (bounded, one per served store, read by every session). The cache
// stores values, never computes them; the policy questions — who pays for
// a miss, what a hit costs — live in the callers.
package memo

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// numShards is the number of lock-scoped segments of a Cache. A power of
// two so the shard pick is a mask, sized to make lock collisions rare at
// the parallelism the server stack targets.
const numShards = 16

// Cache is a sharded map from binary key to V. Lookups through Probe are
// zero-copy (no allocation on the hit path); a stored key pays one string
// allocation. With a positive byte bound the cache becomes an LRU: each
// shard owns maxBytes/numShards and evicts its least recently used entries
// beyond it. The zero value is not usable; call New.
type Cache[V any] struct {
	shards [numShards]cacheShard[V]
	// sizeOf estimates one entry's resident bytes; nil (unbounded caches)
	// skips size accounting entirely.
	sizeOf    func(key string, v V) int64
	evictions atomic.Int64
}

// cacheShard is one lock-scoped segment of the table.
type cacheShard[V any] struct {
	mu sync.Mutex
	m  map[string]*list.Element
	// lru orders the shard's entries, front = most recently used. Only
	// maintained when the cache is bounded.
	lru      *list.List
	maxBytes int64 // 0 = unbounded
	bytes    int64
}

type cacheEntry[V any] struct {
	key  string
	v    V
	size int64
}

// New builds a cache. maxBytes > 0 bounds the resident size: sizeOf
// estimates each entry's bytes (nil panics when maxBytes > 0) and least
// recently used entries are evicted beyond the bound. maxBytes == 0 is the
// unbounded memo table a journal uses.
func New[V any](maxBytes int64, sizeOf func(key string, v V) int64) *Cache[V] {
	if maxBytes > 0 && sizeOf == nil {
		panic("memo: a bounded cache needs a sizeOf estimator")
	}
	c := &Cache[V]{}
	if maxBytes > 0 {
		c.sizeOf = sizeOf
	}
	perShard := maxBytes / numShards
	if maxBytes > 0 && perShard < 1 {
		perShard = 1
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*list.Element)
		c.shards[i].maxBytes = perShard
		if maxBytes > 0 {
			c.shards[i].lru = list.New()
		}
	}
	return c
}

// shardFor picks the lock-scoped segment for a key (FNV-1a).
func shardFor(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h & (numShards - 1)
}

// get returns the value stored under key. The []byte key is looked up with
// a zero-copy string conversion, so a hit allocates nothing.
func (c *Cache[V]) get(key []byte) (V, bool) {
	sh := &c.shards[shardFor(string(key))]
	sh.mu.Lock()
	el, ok := sh.m[string(key)] // zero-copy lookup
	var v V
	if ok {
		e := el.Value.(*cacheEntry[V])
		v = e.v
		if sh.lru != nil {
			sh.lru.MoveToFront(el)
		}
	}
	sh.mu.Unlock()
	return v, ok
}

// keyBufPool recycles the scratch buffers Probe builds keys into, so a hit
// allocates nothing even under concurrent use.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Probe looks up the key appendKey appends to an empty buffer — typically a
// method value such as dataspace.Query.AppendKey. The key is built in a
// pooled scratch buffer and looked up zero-copy, so a hit allocates
// nothing. On a miss the key comes back as a string (the one allocation a
// stored entry pays anyway), ready for Set or Flight.Do.
func (c *Cache[V]) Probe(appendKey func([]byte) []byte) (v V, key string, ok bool) {
	bufp := keyBufPool.Get().(*[]byte)
	keyb := appendKey((*bufp)[:0])
	v, ok = c.get(keyb)
	if !ok {
		key = string(keyb)
	}
	*bufp = keyb[:0]
	keyBufPool.Put(bufp)
	return v, key, ok
}

// GetString returns the value stored under key.
func (c *Cache[V]) GetString(key string) (V, bool) {
	sh := &c.shards[shardFor(key)]
	sh.mu.Lock()
	el, ok := sh.m[key]
	var v V
	if ok {
		e := el.Value.(*cacheEntry[V])
		v = e.v
		if sh.lru != nil {
			sh.lru.MoveToFront(el)
		}
	}
	sh.mu.Unlock()
	return v, ok
}

// Set stores v under key and reports whether it did. Storing an existing
// key is a no-op that returns false — memo values are stable by contract —
// so concurrent writers never flap an entry. On a
// bounded cache the shard then evicts least recently used entries beyond
// its byte budget (never the one just stored: a value a caller is about to
// rely on must survive at least its own insertion).
func (c *Cache[V]) Set(key string, v V) bool {
	sh := &c.shards[shardFor(key)]
	sh.mu.Lock()
	if _, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		return false
	}
	if sh.lru == nil { // one allocation holds the element and its entry
		n := &struct {
			el list.Element
			e  cacheEntry[V]
		}{e: cacheEntry[V]{key: key, v: v}}
		n.el.Value = &n.e
		sh.m[key] = &n.el
		sh.mu.Unlock()
		return true
	}
	e := &cacheEntry[V]{key: key, v: v, size: c.sizeOf(key, v)}
	sh.m[key] = sh.lru.PushFront(e)
	sh.bytes += e.size
	evicted := 0
	for sh.bytes > sh.maxBytes && sh.lru.Len() > 1 {
		back := sh.lru.Back()
		victim := back.Value.(*cacheEntry[V])
		sh.lru.Remove(back)
		delete(sh.m, victim.key)
		sh.bytes -= victim.size
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}
	return true
}

// Len returns the number of entries currently stored.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the estimated resident size of a bounded cache (0 for an
// unbounded one, which keeps no size accounting).
func (c *Cache[V]) Bytes() int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// Evictions returns how many entries the byte bound has evicted.
func (c *Cache[V]) Evictions() int { return int(c.evictions.Load()) }

// Via reports how Flight.Do obtained its value.
type Via int

const (
	// Led: this caller held the key's leadership and paid fetch itself.
	Led Via = iota
	// Hit: lookup found the value (possibly after waiting out a leader).
	Hit
	// Waited: a concurrent leader paid fetch and handed the value over.
	Waited
)

// call is one waited-on fetch. The leader deposits the value in the call
// itself before closing done, so waiters never depend on the backing cache
// still holding the entry (an LRU may have evicted it by the time they
// wake).
type call[V any] struct {
	done chan struct{}
	v    V
	ok   bool
}

// Flight single-flights fetches per key: while one caller (the leader) is
// computing a key's value, every other caller for the same key blocks on
// the in-flight entry and receives the leader's value without computing —
// or paying for — it again. A leader that fails does not poison the key:
// its waiters wake, re-check the cache, and one of them assumes leadership
// with its own fetch (and its own budget), so a cancelled or quota-starved
// leader can never orphan its followers. The zero value is not usable;
// call NewFlight.
type Flight[V any] struct {
	mu sync.Mutex
	// m maps each key in flight to its call. The first waiter makes the
	// call; until then the key maps to unwaited, so an uncontended fetch
	// allocates nothing.
	m        map[string]*call[V]
	unwaited *call[V]
}

// NewFlight returns an empty in-flight registry.
func NewFlight[V any]() *Flight[V] {
	return &Flight[V]{m: make(map[string]*call[V]), unwaited: &call[V]{}}
}

// InFlight returns the number of keys currently being fetched.
func (f *Flight[V]) InFlight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

// Claim is Do without the fetch and the wait. Hit returns lookup's value.
// Led registers the caller as the key's leader: it must fetch, publish a
// success to lookup, and Release the key exactly once, answered or not.
// Waited means another caller leads the key; Do waits for it. A caller
// leading several keys must Release them all before it waits on any
// other, or two such callers can deadlock.
func (f *Flight[V]) Claim(key string, lookup func() (V, bool)) (V, Via) {
	v, via, _ := f.claim(key, lookup)
	return v, via
}

// claim is Claim returning, on Waited, the leader's in-flight call.
func (f *Flight[V]) claim(key string, lookup func() (V, bool)) (V, Via, *call[V]) {
	if v, ok := lookup(); ok {
		return v, Hit, nil
	}
	var zero V
	f.mu.Lock()
	if c, ok := f.m[key]; ok {
		if c == f.unwaited {
			c = &call[V]{done: make(chan struct{})}
			f.m[key] = c
		}
		f.mu.Unlock()
		return zero, Waited, c
	}
	// No leader in flight — but one may have landed and deregistered
	// between the lookup miss above and taking f.mu. A leader publishes
	// to the cache before deregistering, so re-checking lookup while
	// holding f.mu is authoritative: a miss here proves the key has never
	// been fetched and no fetch is running, and registering now makes the
	// caller the only party that can fetch it.
	if v, ok := lookup(); ok {
		f.mu.Unlock()
		return v, Hit, nil
	}
	f.m[key] = f.unwaited
	f.mu.Unlock()
	return zero, Led, nil
}

// Release ends the caller's leadership of key. With ok the waiters receive
// v; without, they re-check the cache and one of them leads next.
func (f *Flight[V]) Release(key string, v V, ok bool) {
	f.mu.Lock()
	c := f.m[key]
	delete(f.m, key)
	f.mu.Unlock()
	if c == f.unwaited {
		return
	}
	if ok {
		c.v, c.ok = v, true
	}
	close(c.done)
}

// Do returns the key's value: from lookup if present, from a concurrent
// leader's in-flight fetch if one is running, else by fetching as the
// leader itself. lookup is re-consulted after every wait, so Do composes
// with any cache the leader's fetch populates. A fetch error is returned
// only to the leader that incurred it; waiters retry (and at most one of
// them becomes the next leader), which bounds the retries by the number of
// waiters — no livelock. A ctx cancelled while waiting returns ctx.Err()
// without consuming anything.
//
// At-most-one-fetch contract: a successful fetch must make its value
// visible to lookup before it returns (hiddendb.Memo's fetch records the
// answer in its cache, then returns). Do leans on
// that ordering to close the window between a caller's lookup miss and its
// registration (see claim): a registered leader is the only party that can
// fetch the key.
func (f *Flight[V]) Do(ctx context.Context, key string, lookup func() (V, bool), fetch func() (V, error)) (V, Via, error) {
	waited := false
	for {
		v, via, c := f.claim(key, lookup)
		switch via {
		case Hit:
			if waited {
				return v, Waited, nil
			}
			return v, Hit, nil
		case Led:
			v, err := fetch()
			f.Release(key, v, err == nil)
			return v, Led, err
		}
		select {
		case <-c.done:
			if c.ok {
				return c.v, Waited, nil
			}
			// The leader failed; its failure is its own (a cancelled
			// crawl, an exhausted budget). Re-check the cache and race
			// for leadership.
			waited = true
		case <-ctx.Done():
			var zero V
			return zero, Waited, ctx.Err()
		}
	}
}
