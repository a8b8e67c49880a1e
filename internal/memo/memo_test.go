package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheGetSet(t *testing.T) {
	c := New[int](0, nil)
	if _, ok := c.get([]byte("a")); ok {
		t.Fatal("empty cache reports a hit")
	}
	if !c.Set("a", 1) {
		t.Fatal("Set of a new key reports no store")
	}
	if c.Set("a", 2) { // no-op: memo values are stable
		t.Fatal("Set of an existing key reports a store")
	}
	if v, ok := c.get([]byte("a")); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	if v, ok := c.GetString("a"); !ok || v != 1 {
		t.Fatalf("GetString(a) = %d, %v; want 1, true", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if c.Bytes() != 0 || c.Evictions() != 0 {
		t.Fatalf("unbounded cache reports bytes=%d evictions=%d", c.Bytes(), c.Evictions())
	}
}

// TestCacheProbe: Probe builds the key through the caller's append
// function, hands the key back as a string on a miss, and finds the entry
// stored under that string on the next probe.
func TestCacheProbe(t *testing.T) {
	c := New[int](0, nil)
	appendKey := func(dst []byte) []byte { return append(dst, "k\x00ey"...) }
	if _, key, ok := c.Probe(appendKey); ok || key != "k\x00ey" {
		t.Fatalf("miss: key %q, ok %v; want the appended key and false", key, ok)
	}
	c.Set("k\x00ey", 7)
	if v, key, ok := c.Probe(appendKey); !ok || v != 7 || key != "" {
		t.Fatalf("hit: %d, key %q, ok %v; want 7, empty key, true", v, key, ok)
	}
}

func TestCacheLRUEvicts(t *testing.T) {
	// All keys land in one shard (identical content hashes identically is
	// not enough — use keys that map to the same shard by construction:
	// shard choice is content-hash based, so probe until three keys share
	// a shard).
	sizeOf := func(key string, v int) int64 { return 10 }
	var keys []string
	want := shardFor("k-0")
	for i := 0; len(keys) < 4; i++ {
		k := fmt.Sprintf("k-%d", i)
		if shardFor(k) == want {
			keys = append(keys, k)
		}
	}
	c := New[int](16*25, sizeOf) // 25 bytes per shard: two 10-byte entries fit
	c.Set(keys[0], 0)
	c.Set(keys[1], 1)
	if _, ok := c.GetString(keys[0]); !ok {
		t.Fatal("both entries should fit")
	}
	// keys[0] is now most recently used; inserting keys[2] must evict
	// keys[1].
	c.Set(keys[2], 2)
	if _, ok := c.GetString(keys[1]); ok {
		t.Fatal("LRU entry survived past the byte bound")
	}
	if _, ok := c.GetString(keys[0]); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if c.Evictions() == 0 {
		t.Fatal("eviction not counted")
	}
	if c.Bytes() > 16*25 {
		t.Fatalf("resident bytes %d exceed the bound", c.Bytes())
	}
}

func TestCacheBoundedNeverEvictsFreshEntry(t *testing.T) {
	// An entry bigger than the whole shard budget still survives its own
	// insertion: the caller that stored it is about to rely on it.
	c := New[int](16, func(string, int) int64 { return 1 << 20 })
	c.Set("huge", 7)
	if v, ok := c.GetString("huge"); !ok || v != 7 {
		t.Fatal("oversized entry evicted at insertion")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := New[int](4096, func(key string, v int) int64 { return int64(len(key)) + 8 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k-%d", i%100)
				c.Set(key, i%100)
				if v, ok := c.get([]byte(key)); ok && v != i%100 {
					t.Errorf("Get(%s) = %d, want %d", key, v, i%100)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFlightSingleFlight(t *testing.T) {
	c := New[int](0, nil)
	f := NewFlight[int]()
	var fetches atomic.Int32
	var done sync.WaitGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	const workers = 16
	done.Add(workers)
	var leads, waits atomic.Int32
	for i := 0; i < workers; i++ {
		go func() {
			defer done.Done()
			v, via, err := f.Do(context.Background(), "k",
				func() (int, bool) { return c.GetString("k") },
				func() (int, error) {
					fetches.Add(1)
					close(entered)
					<-release
					c.Set("k", 42)
					return 42, nil
				})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v; want 42, nil", v, err)
			}
			switch via {
			case Led:
				leads.Add(1)
			case Waited:
				waits.Add(1)
			}
		}()
	}
	<-entered
	if f.InFlight() != 1 {
		t.Fatalf("InFlight = %d with a leader fetching, want 1", f.InFlight())
	}
	close(release)
	done.Wait()
	if got := fetches.Load(); got != 1 {
		t.Fatalf("%d fetches for one key, want exactly 1", got)
	}
	if leads.Load() != 1 {
		t.Fatalf("%d leaders, want exactly 1", leads.Load())
	}
	if f.InFlight() != 0 {
		t.Fatalf("in-flight registry not drained: %d", f.InFlight())
	}
}

// TestFlightLeaderFailureHandsOver: a failing leader returns its own error
// and its waiters retry — exactly one of them becomes the next leader and
// succeeds, so a cancelled leader can never orphan its followers.
func TestFlightLeaderFailureHandsOver(t *testing.T) {
	c := New[int](0, nil)
	f := NewFlight[int]()
	boom := errors.New("leader cancelled")
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})

	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = f.Do(context.Background(), "k",
			func() (int, bool) { return c.GetString("k") },
			func() (int, error) {
				close(leaderIn)
				<-leaderGo
				return 0, boom
			})
	}()
	<-leaderIn

	// Two followers pile onto the in-flight entry, then the leader fails.
	var followerFetches atomic.Int32
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := f.Do(context.Background(), "k",
				func() (int, bool) { return c.GetString("k") },
				func() (int, error) {
					followerFetches.Add(1)
					c.Set("k", 99)
					return 99, nil
				})
			if err != nil {
				t.Errorf("follower failed: %v", err)
			}
			results <- v
		}()
	}
	close(leaderGo)
	wg.Wait()
	if !errors.Is(leaderErr, boom) {
		t.Fatalf("leader error = %v, want %v", leaderErr, boom)
	}
	for i := 0; i < 2; i++ {
		if v := <-results; v != 99 {
			t.Fatalf("follower got %d, want 99", v)
		}
	}
	if got := followerFetches.Load(); got != 1 {
		t.Fatalf("%d follower fetches after handover, want exactly 1", got)
	}
}

func TestFlightWaiterCtxCancel(t *testing.T) {
	c := New[int](0, nil)
	f := NewFlight[int]()
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.Do(context.Background(), "k",
			func() (int, bool) { return c.GetString("k") },
			func() (int, error) {
				close(leaderIn)
				<-leaderGo
				c.Set("k", 1)
				return 1, nil
			})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := f.Do(ctx, "k",
		func() (int, bool) { return c.GetString("k") },
		func() (int, error) { t.Error("cancelled waiter must not fetch"); return 0, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(leaderGo)
	wg.Wait()
}

func TestFlightLookupHit(t *testing.T) {
	c := New[int](0, nil)
	f := NewFlight[int]()
	c.Set("k", 5)
	v, via, err := f.Do(context.Background(), "k",
		func() (int, bool) { return c.GetString("k") },
		func() (int, error) { t.Error("must not fetch on a lookup hit"); return 0, nil })
	if err != nil || v != 5 || via != Hit {
		t.Fatalf("Do = %d, %v, %v; want 5, Hit, nil", v, via, err)
	}
}

// TestFlightNeverDoubleFetches hammers the window between a caller's lookup
// miss and its registration: a leader that completes (publish, deregister)
// inside that window must not leave the late caller believing it is a fresh
// leader for an unfetched key. The fetch count per key has to be exactly
// one however the schedule lands — the invariant the fleet accounting
// (store-paid == distinct queries) is built on.
func TestFlightNeverDoubleFetches(t *testing.T) {
	const keys = 64
	const askers = 8
	c := New[int](0, nil)
	f := NewFlight[int]()
	var fetches atomic.Int64
	var wg sync.WaitGroup
	for a := 0; a < askers; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("k-%d", i)
				v, _, err := f.Do(context.Background(), key,
					func() (int, bool) { return c.GetString(key) },
					func() (int, error) {
						fetches.Add(1)
						c.Set(key, i)
						return i, nil
					})
				if err != nil || v != i {
					t.Errorf("Do(%s) = %d, %v; want %d, nil", key, v, err, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := fetches.Load(); got != keys {
		t.Fatalf("%d fetches for %d keys; a key was fetched twice", got, keys)
	}
}

// TestFlightClaimRelease: Claim reports a cached key as Hit, registers the
// first claimant of a missing key as its leader and reports a led key as
// Waited; a Do waiting on a claimed key receives the value the leader
// releases, and after a failed release the waiter leads a fetch itself.
func TestFlightClaimRelease(t *testing.T) {
	c := New[int](0, nil)
	f := NewFlight[int]()
	lookup := func() (int, bool) { return c.GetString("k") }
	c.Set("cached", 7)
	if v, via := f.Claim("cached", func() (int, bool) { return c.GetString("cached") }); via != Hit || v != 7 {
		t.Fatalf("Claim on a cached key = %d, %v; want 7, Hit", v, via)
	}

	for _, ok := range []bool{true, false} {
		if _, via := f.Claim("k", lookup); via != Led {
			t.Fatalf("first Claim = %v, want Led", via)
		}
		if _, via := f.Claim("k", lookup); via != Waited {
			t.Fatalf("second Claim = %v, want Waited", via)
		}
		got := make(chan int, 1)
		go func() {
			v, _, err := f.Do(context.Background(), "k", lookup, func() (int, error) { return 3, nil })
			if err != nil {
				t.Errorf("waiter: %v", err)
			}
			got <- v
		}()
		time.Sleep(10 * time.Millisecond) // let the waiter block on the leader
		if ok {
			c.Set("k", 5) // a leader publishes before it releases
		}
		f.Release("k", 5, ok)
		want := 3 // the failed leader's waiter fetched it
		if ok {
			want = 5
		}
		if v := <-got; v != want {
			t.Fatalf("release ok=%v: waiter got %d, want %d", ok, v, want)
		}
		if f.InFlight() != 0 {
			t.Fatalf("in-flight registry not drained: %d", f.InFlight())
		}
		c = New[int](0, nil)
	}
}
