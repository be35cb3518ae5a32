package registry

import (
	"encoding/binary"
	"math/rand"
	"sync"

	"repro/internal/validator"
)

// lruCache is a bounded, thread-safe LRU map from cacheKey to a
// validation decision. Bounding matters at an enforcement point: request
// bodies are attacker-controlled, so an unbounded memo would be a memory
// amplification primitive.
//
// The recency list is threaded through a slab: items live in one slice
// and link to each other by index. The slab doubles as decisions are put
// in it, up to the capacity, so a shard that only ever sees a few bodies
// stays small and one that sees none costs nothing but this struct; from
// then on an insert reuses the evicted item's slot.
//
// The keys are indexed by an open-addressed table stored beside the
// slab, not by a runtime map. Under insert/evict churn a map keeps the
// tombstones its deletes leave and clears them only by growing, so a
// full shard's map climbed from 192 KiB to over 500 KiB while it held
// 1 024 decisions. The index here deletes by backward shift, leaves
// no tombstones and is rebuilt only when the slab grows: a full shard
// keeps its size, and a cache at capacity inserts without allocating.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	// seed is mixed into every key's hash, so a client who grinds
	// bodies cannot aim their keys at one probe chain.
	seed uint64
	// index is open-addressed with linear probing, a power of two long
	// and at least twice cap(slab), so at most half full. A slot holds a
	// key's tag (slotHash) in its upper half and its slab index + 1 in
	// its lower half; 0 is empty.
	index []uint64
	slab  []lruItem
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
		seed:     rand.Uint64(),
		head:     -1,
		tail:     -1,
	}
}

// slotHash is key's tag; its low bits, masked to the index length, are
// the key's home slot, so a slot's home is known without the slab. The
// body tag is already uniform, so one mix of its first word with the
// generation and the seed suffices; keys that share that word are told
// apart by the full-key compare every tag match is confirmed by.
func (c *lruCache) slotHash(key *cacheKey) uint32 {
	h := binary.LittleEndian.Uint64(key.tag[:8]) ^ key.gen*0x9e3779b97f4a7c15 ^ c.seed
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h >> 32)
}

// find returns key's slab index, or -1 when the key is not cached.
func (c *lruCache) find(key *cacheKey) int32 {
	if len(c.index) == 0 {
		return -1
	}
	mask := uint32(len(c.index) - 1)
	tag := c.slotHash(key)
	for s := tag & mask; ; s = (s + 1) & mask {
		e := c.index[s]
		if e == 0 {
			return -1
		}
		if uint32(e>>32) == tag {
			if i := int32(uint32(e)) - 1; c.slab[i].key == *key {
				return i
			}
		}
	}
}

// place puts slot value e, whose key is not indexed, in the first empty
// slot from its home.
func (c *lruCache) place(e uint64) {
	mask := uint32(len(c.index) - 1)
	s := uint32(e>>32) & mask
	for c.index[s] != 0 {
		s = (s + 1) & mask
	}
	c.index[s] = e
}

// unindex removes slab item i from the index. Each later slot of the
// cluster moves back into the hole unless its home lies after the hole
// (Knuth's Algorithm R), so no probe chain is cut and no tombstone is
// left.
func (c *lruCache) unindex(i int32) {
	mask := uint32(len(c.index) - 1)
	s := c.slotHash(&c.slab[i].key) & mask
	for uint32(c.index[s]) != uint32(i+1) {
		s = (s + 1) & mask
	}
	for j := s; ; {
		j = (j + 1) & mask
		e := c.index[j]
		if e == 0 {
			break
		}
		if home := uint32(e>>32) & mask; (j-home)&mask >= (j-s)&mask {
			c.index[s] = e
			s = j
		}
	}
	c.index[s] = 0
}

// grow doubles the slab, up to the capacity, and rebuilds the index for
// the new size.
func (c *lruCache) grow() {
	n := min(max(2*cap(c.slab), 1), c.capacity)
	slab := make([]lruItem, len(c.slab), n)
	copy(slab, c.slab)
	c.slab = slab
	size := 2
	for size < 2*n {
		size *= 2
	}
	old := c.index
	c.index = make([]uint64, size)
	for _, e := range old {
		if e != 0 {
			c.place(e)
		}
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
	i := c.find(&key)
	if i < 0 {
		return nil, false
	}
	c.touch(i)
	return c.slab[i].vs, true
}

func (c *lruCache) put(key cacheKey, vs []validator.Violation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.find(&key); i >= 0 {
		c.slab[i].vs = vs
		c.touch(i)
		return
	}
	var i int32
	if len(c.slab) < c.capacity {
		if len(c.slab) == cap(c.slab) {
			c.grow()
		}
		i = int32(len(c.slab))
		c.slab = c.slab[:i+1]
	} else {
		// Full: the least recently used item gives up its slot.
		i = c.tail
		c.unlink(i)
		c.unindex(i)
	}
	c.slab[i].key, c.slab[i].vs = key, vs
	c.pushFront(i)
	c.place(uint64(c.slotHash(&key))<<32 | uint64(uint32(i+1)))
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
		out = append(out, CacheEntry{BodyTag: item.key.tag, Violations: item.vs})
	}
	return out
}
