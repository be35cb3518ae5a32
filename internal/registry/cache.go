package registry

import (
	"sync"

	"repro/internal/validator"
)

// lruCache is a bounded, thread-safe LRU map from cacheKey to a
// validation decision. Bounding matters at an enforcement point: request
// bodies are attacker-controlled, so an unbounded memo would be a memory
// amplification primitive.
//
// The recency list is threaded through a slab: items live in one slice
// and link to each other by index, and the map holds indices. The slab
// and the map grow with the decisions put in them, up to the capacity —
// a shard that only ever sees a few bodies stays small, and one that
// sees none costs an empty map — and from then on an insert reuses the
// evicted item's slot, so a cache at capacity inserts without
// allocating.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	items    map[cacheKey]int32 // index into slab
	slab     []lruItem
	// head is the most and tail the least recently used item; -1 when
	// the cache is empty.
	head, tail int32
}

type lruItem struct {
	key cacheKey
	vs  []validator.Violation
	// prev links toward head (more recent), next toward tail; -1 ends.
	prev, next int32
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		capacity: capacity,
		items:    make(map[cacheKey]int32),
		head:     -1,
		tail:     -1,
	}
}

// unlink takes item i out of the recency list.
func (c *lruCache) unlink(i int32) {
	it := &c.slab[i]
	if it.prev >= 0 {
		c.slab[it.prev].next = it.next
	} else {
		c.head = it.next
	}
	if it.next >= 0 {
		c.slab[it.next].prev = it.prev
	} else {
		c.tail = it.prev
	}
}

// pushFront makes item i, not in the list, the most recently used.
func (c *lruCache) pushFront(i int32) {
	it := &c.slab[i]
	it.prev, it.next = -1, c.head
	if c.head >= 0 {
		c.slab[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// touch makes item i, in the list, the most recently used.
func (c *lruCache) touch(i int32) {
	if i != c.head {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *lruCache) get(key cacheKey) ([]validator.Violation, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.touch(i)
	return c.slab[i].vs, true
}

func (c *lruCache) put(key cacheKey, vs []validator.Violation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.items[key]; ok {
		c.slab[i].vs = vs
		c.touch(i)
		return
	}
	var i int32
	if len(c.slab) < c.capacity {
		i = int32(len(c.slab))
		c.slab = append(c.slab, lruItem{})
	} else {
		// Full: the least recently used item gives up its slot.
		i = c.tail
		c.unlink(i)
		delete(c.items, c.slab[i].key)
	}
	c.slab[i].key, c.slab[i].vs = key, vs
	c.pushFront(i)
	c.items[key] = i
}

func (c *lruCache) stats() (size, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slab), c.capacity
}

// export copies the shard's decisions made under one policy generation,
// ordered least- to most-recently used so an import replayed through
// put() reproduces the source's recency order. Decisions cached under
// any other generation are already unreachable (probes key on the
// current generation) and are dropped here rather than shipped.
func (c *lruCache) export(gen uint64) []CacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CacheEntry, 0, len(c.slab))
	for i := c.tail; i >= 0; i = c.slab[i].prev {
		item := &c.slab[i]
		if item.key.gen != gen {
			continue
		}
		out = append(out, CacheEntry{BodyHash: item.key.bodyHash, Violations: item.vs})
	}
	return out
}
