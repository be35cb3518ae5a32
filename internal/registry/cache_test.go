package registry

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/validator"
)

// TestDecisionCacheConfirmsEveryTagMatch: a key's tag and home slot are
// hashes of part of the key, so different keys can share them. Whatever
// they share, a probe answers only with the decision stored for the
// exact key asked about, and eviction still follows recency. Each key
// set is driven through a seeded stream of gets and puts beside the
// reference LRU, with a decision per key that names it, and the index is
// checked for consistency after every step.
func TestDecisionCacheConfirmsEveryTagMatch(t *testing.T) {
	const capacity, n = 8, 24
	sets := map[string]func(c *lruCache) []cacheKey{
		// Every key has the same first 8 body-tag bytes, and the keys
		// differ only in the last byte: one tag and one home slot for all.
		"shared-prefix": func(*lruCache) []cacheKey {
			base := BodyTag([]byte("base"))
			keys := make([]cacheKey, n)
			for i := range keys {
				keys[i].tag = base
				keys[i].tag[len(base)-1] ^= byte(1 + i)
			}
			return keys
		},
		// One body under many policy generations.
		"generation-only": func(*lruCache) []cacheKey {
			keys := make([]cacheKey, n)
			for i := range keys {
				keys[i] = cacheKey{gen: uint64(i), tag: BodyTag([]byte("body"))}
			}
			return keys
		},
		// Under a fixed seed, bodies ground to share home slot 0 at every
		// index length the shard passes through.
		"one-home": func(c *lruCache) []cacheKey { return groundKeys(c, n, 0) },
		// Bodies ground to home on the index's last slots and its first,
		// so chains wrap around the end.
		"wrapping-homes": func(c *lruCache) []cacheKey { return groundKeys(c, n, 14, 15, 0) },
	}
	verdicts := make([][]validator.Violation, n)
	for i := range verdicts {
		verdicts[i] = []validator.Violation{{Reason: fmt.Sprint("key ", i)}}
	}
	for name, build := range sets {
		t.Run(name, func(t *testing.T) {
			c, ref := newLRUCache(capacity), newRefLRUCache(capacity)
			c.seed = 1
			keys := build(c)
			rng := rand.New(rand.NewSource(1))
			for step := 0; step < 200*n; step++ {
				k := rng.Intn(n)
				if rng.Intn(2) == 0 {
					gotVS, gotOK := c.get(keys[k])
					wantVS, wantOK := ref.get(keys[k])
					if gotOK != wantOK || !reflect.DeepEqual(gotVS, wantVS) {
						t.Fatalf("step %d: get(key %d) = %v %v, want %v %v", step, k, gotVS, gotOK, wantVS, wantOK)
					}
				} else {
					var victim *cacheKey
					if _, present := ref.items[keys[k]]; !present && ref.ll.Len() == capacity {
						victim = &ref.ll.Back().Value.(*refLRUItem).key
					}
					c.put(keys[k], verdicts[k])
					ref.put(keys[k], verdicts[k])
					if victim != nil && c.find(victim) >= 0 {
						t.Fatalf("step %d: the shard kept the key the reference evicted", step)
					}
				}
				checkIndex(t, c)
			}
		})
	}
}

// groundKeys returns n keys whose home slots, under c's seed and in the
// 16-slot index of a full capacity-8 shard, are among homes.
func groundKeys(c *lruCache, n int, homes ...uint32) []cacheKey {
	var keys []cacheKey
	for i := 0; len(keys) < n; i++ {
		k := cacheKey{tag: BodyTag([]byte(fmt.Sprint(i)))}
		for _, h := range homes {
			if c.slotHash(&k)&15 == h {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// checkIndex fails t unless c's index holds each slab item exactly once,
// under the item's own tag, reachable from its home slot without
// crossing an empty slot, and at most half full.
func checkIndex(t *testing.T, c *lruCache) {
	t.Helper()
	v := c.view.Load()
	index, slab := v.index, v.slab[:c.n]
	mask := uint32(len(index) - 1)
	seen := make(map[int32]bool)
	for s, e := range index {
		if e == 0 {
			continue
		}
		i := int32(uint32(e)) - 1
		if i < 0 || int(i) >= len(slab) || seen[i] {
			t.Fatalf("slot %d names slab item %d (slab %d, seen %v)", s, i, len(slab), seen[i])
		}
		seen[i] = true
		key := slab[i].loadKey()
		tag := c.slotHash(&key)
		if uint32(e>>32) != tag {
			t.Fatalf("slot %d carries tag %#x, its key hashes to %#x", s, e>>32, tag)
		}
		for h := tag & mask; h != uint32(s); h = (h + 1) & mask {
			if index[h] == 0 {
				t.Fatalf("slot %d is cut off from its home %d by the empty slot %d", s, tag&mask, h)
			}
		}
	}
	if len(seen) != len(slab) || 2*len(seen) > len(index) {
		t.Fatalf("index holds %d of %d items in %d slots", len(seen), len(slab), len(index))
	}
}

// BenchmarkDecisionCache prices one shard probe: hit cycles a 650-key
// hot set in a 1 024-entry shard; miss-evict probes a full shard with a
// key it does not hold and inserts it, evicting the least recently
// used, as an uncached request does.
func BenchmarkDecisionCache(b *testing.B) {
	const capacity = 1024
	keys := make([]cacheKey, 4*capacity)
	for i := range keys {
		keys[i] = cacheKey{gen: 1, tag: BodyTag([]byte(fmt.Sprint(i)))}
	}
	b.Run("hit", func(b *testing.B) {
		c := newLRUCache(capacity)
		hot := keys[:650]
		for _, k := range hot {
			c.put(k, nil)
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, ok := c.get(hot[n%len(hot)]); !ok {
				b.Fatal("a hot key missed")
			}
		}
	})
	b.Run("miss-evict", func(b *testing.B) {
		c := newLRUCache(capacity)
		for _, k := range keys[:capacity] {
			c.put(k, nil)
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			k := keys[(capacity+n)%len(keys)]
			if _, ok := c.get(k); ok {
				b.Fatal("a fresh key hit")
			}
			c.put(k, nil)
		}
	})
}

// BenchmarkDecisionCacheParallel is the hit of BenchmarkDecisionCache
// from every core at once on one shard: a hit that wrote a line another
// core writes (a lock, a recency list) would serialize them.
func BenchmarkDecisionCacheParallel(b *testing.B) {
	const capacity = 1024
	c := newLRUCache(capacity)
	hot := make([]cacheKey, 650)
	for i := range hot {
		hot[i] = cacheKey{gen: 1, tag: BodyTag([]byte(fmt.Sprint(i)))}
		c.put(hot[i], nil)
	}
	var start atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := int(start.Add(97))
		for pb.Next() {
			if _, ok := c.get(hot[n%len(hot)]); !ok {
				b.Error("a hot key missed")
				return
			}
			n++
		}
	})
}
