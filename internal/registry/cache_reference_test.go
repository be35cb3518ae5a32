package registry

import (
	"container/list"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/validator"
)

// refLRUCache is the oracle the slab is held to: the same second-chance
// eviction over container/list, written for clarity rather than speed.
// (It keeps the name of the exact LRU it was until the shard's hits went
// lock-free.) The list is the clock, a circle read front to back and
// round again; it is cut so that its back is the item the next eviction
// takes, so a test asks ll.Back() for the victim as it asked the LRU.
type refLRUCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[cacheKey]*list.Element
	// hand is where the next eviction's sweep starts; nil while empty.
	hand *list.Element
}

type refLRUItem struct {
	key cacheKey
	vs  []validator.Violation
	ref bool // the second-chance bit
}

func newRefLRUCache(capacity int) *refLRUCache {
	return &refLRUCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element, capacity),
	}
}

// next is el's successor on the clock.
func (c *refLRUCache) next(el *list.Element) *list.Element {
	if n := el.Next(); n != nil {
		return n
	}
	return c.ll.Front()
}

// recut turns the circle until its back is the next victim: the first
// item from the hand whose bit is clear, or the hand itself when every
// bit is set (the sweep clears them all and comes back to it).
func (c *refLRUCache) recut() {
	if c.hand == nil {
		return
	}
	victim := c.hand
	for el := c.hand; ; {
		if !el.Value.(*refLRUItem).ref {
			victim = el
			break
		}
		if el = c.next(el); el == c.hand {
			break
		}
	}
	for c.ll.Back() != victim {
		c.ll.MoveToBack(c.ll.Front())
	}
}

func (c *refLRUCache) get(key cacheKey) ([]validator.Violation, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	item := el.Value.(*refLRUItem)
	item.ref = true
	c.recut()
	return item.vs, true
}

func (c *refLRUCache) put(key cacheKey, vs []validator.Violation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		item := el.Value.(*refLRUItem)
		item.vs, item.ref = vs, true
		c.recut()
		return
	}
	item := &refLRUItem{key: key, vs: vs}
	switch {
	case c.hand == nil:
		c.hand = c.ll.PushBack(item)
		c.items[key] = c.hand
	case c.ll.Len() < c.capacity:
		// Just behind the hand, which has not moved: after every item
		// put so far.
		c.items[key] = c.ll.InsertBefore(item, c.hand)
	default:
		for it := c.hand.Value.(*refLRUItem); it.ref; it = c.hand.Value.(*refLRUItem) {
			it.ref = false
			c.hand = c.next(c.hand)
		}
		victim := c.hand
		c.items[key] = c.ll.InsertBefore(item, victim)
		c.hand = c.next(victim)
		c.ll.Remove(victim)
		delete(c.items, victim.Value.(*refLRUItem).key)
	}
	c.recut()
}

func (c *refLRUCache) stats() (size, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.capacity
}

// export lists one generation's decisions in eviction order: from the
// hand round, the items whose bit is clear, then those whose bit is set.
func (c *refLRUCache) export(gen uint64) []CacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out, hot []CacheEntry
	el := c.hand
	for n := 0; n < c.ll.Len(); n++ {
		item := el.Value.(*refLRUItem)
		if item.key.gen == gen {
			ce := CacheEntry{BodyTag: item.key.tag, Violations: item.vs}
			if item.ref {
				hot = append(hot, ce)
			} else {
				out = append(out, ce)
			}
		}
		el = c.next(el)
	}
	return append(out, hot...)
}

// TestLRUSlabMatchesReference drives the slab and the reference through
// the same seeded stream of gets, puts, re-puts and exports at several
// capacities: every get must return the same value, every step must leave
// the same keys cached (so the same evictions, second chances included)
// and every export must list the same decisions in the same eviction
// order.
func TestLRUSlabMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 1024} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			// A key universe a little over twice the capacity keeps both
			// hits and evictions common; two generations exercise the
			// export filter.
			keys := make([]cacheKey, 2*capacity+3)
			for i := range keys {
				keys[i] = cacheKey{gen: uint64(i % 2), tag: BodyTag([]byte(fmt.Sprint(i)))}
			}
			verdicts := [][]validator.Violation{nil, {{Reason: "a"}}, {{Reason: "b"}, {Reason: "c"}}}
			slab, ref := newLRUCache(capacity), newRefLRUCache(capacity)
			steps := 10 * len(keys)
			for step := 0; step < steps; step++ {
				k := keys[rng.Intn(len(keys))]
				switch op := rng.Intn(50); {
				case op < 20:
					gotVS, gotOK := slab.get(k)
					wantVS, wantOK := ref.get(k)
					if gotOK != wantOK || !reflect.DeepEqual(gotVS, wantVS) {
						t.Fatalf("step %d: get = %v %v, reference %v %v", step, gotVS, gotOK, wantVS, wantOK)
					}
				case op < 49:
					// The key the reference is about to evict, if any, must
					// leave the slab too.
					var victim *cacheKey
					if _, present := ref.items[k]; !present && ref.ll.Len() == capacity {
						victim = &ref.ll.Back().Value.(*refLRUItem).key
					}
					vs := verdicts[rng.Intn(len(verdicts))]
					slab.put(k, vs)
					ref.put(k, vs)
					if victim != nil {
						if slab.find(victim) >= 0 {
							t.Fatalf("step %d: the slab kept the key the reference evicted", step)
						}
					}
				default:
					gen := uint64(rng.Intn(2))
					if got, want := slab.export(gen), ref.export(gen); !sameEntries(got, want) {
						t.Fatalf("step %d: export(%d) = %v, reference %v", step, gen, got, want)
					}
				}
				gotSize, _ := slab.stats()
				wantSize, _ := ref.stats()
				if gotSize != wantSize || indexed(slab) != len(ref.items) {
					t.Fatalf("step %d: size %d (%d keys), reference %d", step, gotSize, indexed(slab), wantSize)
				}
			}
			for _, gen := range []uint64{0, 1} {
				if got, want := slab.export(gen), ref.export(gen); !sameEntries(got, want) {
					t.Fatalf("final export(%d) = %v, reference %v", gen, got, want)
				}
			}
		})
	}
}

// find returns key's slab index in c, or -1 when the key is not
// cached; unlike get, it leaves the reference bit alone.
func (c *lruCache) find(key *cacheKey) int32 {
	kw, v := keyWords(key), c.view.Load()
	return probe(v.index, v.slab, &kw, c.slotHash(key))
}

// indexed counts the keys in c's index.
func indexed(c *lruCache) int {
	n := 0
	for _, e := range c.view.Load().index {
		if e != 0 {
			n++
		}
	}
	return n
}

// sameEntries is reflect.DeepEqual for exports, without reflecting over
// every body tag.
func sameEntries(a, b []CacheEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].BodyTag != b[i].BodyTag || !reflect.DeepEqual(a[i].Violations, b[i].Violations) {
			return false
		}
	}
	return true
}

// TestLRUInsertIntoFullShardAllocatesNothing: once the slab has grown to
// capacity, an insert that evicts reuses the evicted slot.
func TestLRUInsertIntoFullShardAllocatesNothing(t *testing.T) {
	const capacity = 64
	c := newLRUCache(capacity)
	keys := make([]cacheKey, 4*capacity)
	for i := range keys {
		keys[i] = cacheKey{tag: BodyTag([]byte(fmt.Sprint(i)))}
	}
	for _, k := range keys[:capacity] {
		c.put(k, nil)
	}
	n := capacity
	allocs := testing.AllocsPerRun(1000, func() {
		c.put(keys[n%len(keys)], nil)
		n++
	})
	if allocs != 0 {
		t.Errorf("an insert into a full shard allocates %.2f times, want 0", allocs)
	}
	if size, _ := c.stats(); size != capacity {
		t.Errorf("size %d after the inserts, want %d", size, capacity)
	}
}
