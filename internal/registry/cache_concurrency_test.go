package registry

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/validator"
)

// TestDecisionCacheLockFreeHitIsSound races lock-free hits against puts,
// evictions and growth on small shards, each round from an empty shard
// so the slab grows under the readers too. The keys are every pairing of
// four generations with eight body tags built from two first words and
// four second words, so a read that mixed the words of two keys would
// spell a third key the shard may hold, under the same home slot. Each
// key's decision names the key, and a quarter of the keys are allows
// (nil). Every hit must return exactly its own key's decision, never
// another key's and never a list other than the one put; the shard never
// outgrows its capacity. Run it under the race detector (make
// cache-race): every word a hit reads outside the mutex must be atomic.
func TestDecisionCacheLockFreeHitIsSound(t *testing.T) {
	const (
		gens     = 4
		capacity = 6
		workers  = 4
		rounds   = 40
		ops      = 1500
	)
	var keys []cacheKey
	for g := uint64(0); g < gens; g++ {
		for w0 := uint64(0); w0 < 2; w0++ {
			for w1 := uint64(0); w1 < 4; w1++ {
				k := cacheKey{gen: g}
				binary.LittleEndian.PutUint64(k.tag[:8], 0x5eed0000+w0)
				binary.LittleEndian.PutUint64(k.tag[8:], 0xbead0000+w1)
				keys = append(keys, k)
			}
		}
	}
	want := make([][]validator.Violation, len(keys))
	for i := range want {
		if i%4 != 0 {
			want[i] = []validator.Violation{{Path: fmt.Sprint("key ", i), Reason: "denied"}}
		}
	}
	same := func(got []validator.Violation, i int) bool {
		w := want[i]
		return len(got) == len(w) && (len(w) == 0 || &got[0] == &w[0])
	}
	hits := 0
	for round := 0; round < rounds; round++ {
		c := newLRUCache(capacity)
		var wg sync.WaitGroup
		var mu sync.Mutex
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				n := 0
				for op := 0; op < ops; op++ {
					i := rng.Intn(len(keys))
					switch r := rng.Intn(10); {
					case r < 3:
						c.put(keys[i], want[i])
					case r == 3:
						if size, _ := c.stats(); size > capacity {
							t.Errorf("shard holds %d decisions, capacity %d", size, capacity)
							return
						}
					default:
						if got, ok := c.get(keys[i]); ok {
							n++
							if !same(got, i) {
								t.Errorf("key %d hit with %v, its decision is %v", i, got, want[i])
								return
							}
						}
					}
				}
				mu.Lock()
				hits += n
				mu.Unlock()
			}(int64(round*workers + w))
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		checkIndex(t, c)
	}
	if hits == 0 {
		t.Fatal("no get hit: the race exercised misses only")
	}
}

// TestDecisionCacheHitTakesNoLock: a hit answers while another goroutine
// holds the shard's mutex, so it neither takes nor waits for it. A miss
// on a quiescent shard does not either.
func TestDecisionCacheHitTakesNoLock(t *testing.T) {
	c := newLRUCache(8)
	held, absent := cacheKey{gen: 1, tag: BodyTag([]byte("held"))}, cacheKey{gen: 1, tag: BodyTag([]byte("absent"))}
	vs := []validator.Violation{{Reason: "denied"}}
	c.put(held, vs)
	c.mu.Lock()
	defer c.mu.Unlock()
	done := make(chan bool, 1)
	go func() {
		got, ok := c.get(held)
		_, missed := c.get(absent)
		done <- ok && !missed && len(got) == 1 && &got[0] == &vs[0]
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Error("a hit under a held mutex returned the wrong answer")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a get waited for the shard's mutex")
	}
}
