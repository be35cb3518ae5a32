package registry

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/validator"
)

// lruCache is a bounded, thread-safe map from cacheKey to a validation
// decision that evicts by second chance (CLOCK), an approximation of
// least-recently-used. Bounding matters at an enforcement point: request
// bodies are attacker-controlled, so an unbounded memo would be a memory
// amplification primitive.
//
// A hit takes no lock and writes nothing another core writes. It reads
// the index and the slab under the shard's seqlock, the scan memo's
// idiom (internal/proxy/scanmemo.go): seq is odd while a writer changes
// either, and a hit whose two loads of it differ, or that finds it odd,
// asks again under the mutex. Every word a hit reads is atomic, so the
// race detector sees what the protocol guarantees. The decision is an
// immutable violation list held as a pointer to its first element and
// its length, nil and 0 for an allow: a put stores a denial without
// boxing it and an allow stores nothing. A hit sets its item's reference
// bit only when the bit is clear: a decision re-applied a million times
// is written once.
// Puts, evictions, growth and export take the mutex.
//
// Eviction is second chance: the clock hand sweeps the slab in order,
// clears each set reference bit it passes and evicts the first item
// whose bit is clear, so an item hit since the hand last passed it
// survives one more sweep. A new item enters with its bit clear, in the
// slot of the item it evicts, just behind the hand.
//
// Items live in one slab; the slab doubles as decisions are put in it,
// up to the capacity, so a shard that only ever sees a few bodies stays
// small and one that sees none costs nothing but this struct; from then
// on an insert reuses the evicted item's slot.
//
// The keys are indexed by an open-addressed table stored beside the
// slab, not by a runtime map. Under insert/evict churn a map keeps the
// tombstones its deletes leave and clears them only by growing, so a
// full shard's map climbed from 192 KiB to over 500 KiB while it held
// 1 024 decisions. The index here deletes by backward shift, leaves
// no tombstones and is rebuilt only when the slab grows: a full shard
// keeps its size, and a cache at capacity inserts without allocating.
type lruCache struct {
	// seq is the seqlock: odd while a writer changes the index or a slot.
	seq atomic.Uint32
	// view is the shard's index and slab, the one copy writers and hits
	// both read; a growth replaces it under the mutex.
	view atomic.Pointer[cacheView]

	mu       sync.Mutex
	capacity int
	// seed is mixed into every key's hash, so a client who grinds
	// bodies cannot aim their keys at one probe chain.
	seed uint64
	// n is the number of slab items in use: slab[:n] of the view.
	n int32
	// hand is the slot the next eviction examines first.
	hand int32
}

// cacheView is the index and the slab that one growth published.
type cacheView struct {
	// index is open-addressed with linear probing, a power of two long
	// and at least twice len(slab), so at most half full. A slot holds a
	// key's tag (slotHash) in its upper half and its slab index + 1 in
	// its lower half; 0 is empty. Writers store its words atomically.
	index []uint64
	// slab is as long as it was allocated; the shard's n counts the
	// items in use.
	slab []cacheSlot
}

// noItems is the view of a shard nothing was put in; it is never
// written.
var noItems cacheView

// cacheSlot is one cached decision.
type cacheSlot struct {
	// key is the cacheKey as words: the generation, then the body tag's
	// two little-endian halves.
	key [3]atomic.Uint64
	// vs and n are the violation list's first element and length; nil
	// and 0 are an allow. The list is never written once cached.
	vs atomic.Pointer[validator.Violation]
	n  atomic.Uint32
	// ref is the second-chance bit.
	ref atomic.Uint32
}

func newLRUCache(capacity int) *lruCache {
	c := &lruCache{capacity: capacity, seed: rand.Uint64()}
	c.view.Store(&noItems)
	return c
}

// keyWords is key as a slot stores it.
func keyWords(key *cacheKey) [3]uint64 {
	return [3]uint64{key.gen, binary.LittleEndian.Uint64(key.tag[:8]), binary.LittleEndian.Uint64(key.tag[8:])}
}

// loadKey is the slot's key.
func (s *cacheSlot) loadKey() cacheKey {
	k := cacheKey{gen: s.key[0].Load()}
	binary.LittleEndian.PutUint64(k.tag[:8], s.key[1].Load())
	binary.LittleEndian.PutUint64(k.tag[8:], s.key[2].Load())
	return k
}

// setDecision stores vs, which MaxViolations bounds, as the slot's
// decision.
func (s *cacheSlot) setDecision(vs []validator.Violation) {
	if len(vs) == 0 {
		s.vs.Store(nil)
		s.n.Store(0)
		return
	}
	s.vs.Store(unsafe.SliceData(vs))
	s.n.Store(uint32(len(vs)))
}

// decision is the slot's violation list.
func (s *cacheSlot) decision() []validator.Violation {
	return violations(s.vs.Load(), s.n.Load())
}

// violations is the list whose first element is p and whose length is n.
func violations(p *validator.Violation, n uint32) []validator.Violation {
	if n == 0 {
		return nil
	}
	return unsafe.Slice(p, n)
}

// touch sets the slot's reference bit, writing only when it is clear.
func (s *cacheSlot) touch() {
	if s.ref.Load() == 0 {
		s.ref.Store(1)
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

// probe returns the slab index of the key whose words are kw and whose
// tag is tag, or -1. A hit calls it outside the mutex, so it reads with
// atomic loads and gives up after one lap of the index: under a
// concurrent writer the answer is discarded anyway.
func probe(index []uint64, slab []cacheSlot, kw *[3]uint64, tag uint32) int32 {
	if len(index) == 0 {
		return -1
	}
	mask := uint32(len(index) - 1)
	s := tag & mask
	for range index {
		e := atomic.LoadUint64(&index[s])
		if e == 0 {
			return -1
		}
		if uint32(e>>32) == tag {
			i := int32(uint32(e)) - 1
			if k := &slab[i].key; k[0].Load() == kw[0] && k[1].Load() == kw[1] && k[2].Load() == kw[2] {
				return i
			}
		}
		s = (s + 1) & mask
	}
	return -1
}

// place puts slot value e, whose key is not indexed, in the first empty
// slot from its home.
func (v *cacheView) place(e uint64) {
	mask := uint32(len(v.index) - 1)
	s := uint32(e>>32) & mask
	for v.index[s] != 0 {
		s = (s + 1) & mask
	}
	atomic.StoreUint64(&v.index[s], e)
}

// unindex removes slab item i from the index. Each later slot of the
// cluster moves back into the hole unless its home lies after the hole
// (Knuth's Algorithm R), so no probe chain is cut and no tombstone is
// left.
func (c *lruCache) unindex(v *cacheView, i int32) {
	mask := uint32(len(v.index) - 1)
	key := v.slab[i].loadKey()
	s := c.slotHash(&key) & mask
	for uint32(v.index[s]) != uint32(i+1) {
		s = (s + 1) & mask
	}
	for j := s; ; {
		j = (j + 1) & mask
		e := v.index[j]
		if e == 0 {
			break
		}
		if home := uint32(e>>32) & mask; (j-home)&mask >= (j-s)&mask {
			atomic.StoreUint64(&v.index[s], e)
			s = j
		}
	}
	atomic.StoreUint64(&v.index[s], 0)
}

// grow doubles the slab, up to the capacity, rebuilds the index for the
// new size and publishes both, as one view, to writers and hits.
func (c *lruCache) grow() *cacheView {
	old := c.view.Load()
	n := min(max(2*len(old.slab), 1), c.capacity)
	v := &cacheView{slab: make([]cacheSlot, n)}
	for i := int32(0); i < c.n; i++ {
		from, to := &old.slab[i], &v.slab[i]
		for w := range from.key {
			to.key[w].Store(from.key[w].Load())
		}
		to.vs.Store(from.vs.Load())
		to.n.Store(from.n.Load())
		to.ref.Store(from.ref.Load())
	}
	size := 2
	for size < 2*n {
		size *= 2
	}
	v.index = make([]uint64, size)
	for _, e := range old.index {
		if e != 0 {
			v.place(e)
		}
	}
	c.view.Store(v)
	return v
}

// evict advances the hand past the items whose reference bit is set,
// clearing it, and returns the first item whose bit is clear; the hand
// moves on past it. The shard is full.
func (c *lruCache) evict(v *cacheView) int32 {
	for {
		i := c.hand
		if c.hand++; c.hand == c.n {
			c.hand = 0
		}
		s := &v.slab[i]
		if s.ref.Load() == 0 {
			return i
		}
		s.ref.Store(0)
	}
}

func (c *lruCache) get(key cacheKey) ([]validator.Violation, bool) {
	kw, tag := keyWords(&key), c.slotHash(&key)
	if seq := c.seq.Load(); seq&1 == 0 {
		v := c.view.Load()
		i := probe(v.index, v.slab, &kw, tag)
		var p *validator.Violation
		var n uint32
		if i >= 0 {
			p, n = v.slab[i].vs.Load(), v.slab[i].n.Load()
		}
		if c.seq.Load() == seq {
			if i < 0 {
				return nil, false
			}
			v.slab[i].touch()
			return violations(p, n), true
		}
	}
	// A writer holds the shard: ask under the mutex.
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.view.Load()
	i := probe(v.index, v.slab, &kw, tag)
	if i < 0 {
		return nil, false
	}
	v.slab[i].touch()
	return v.slab[i].decision(), true
}

func (c *lruCache) put(key cacheKey, vs []validator.Violation) {
	kw, tag := keyWords(&key), c.slotHash(&key)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq.Add(1)
	defer c.seq.Add(1)
	v := c.view.Load()
	if i := probe(v.index, v.slab, &kw, tag); i >= 0 {
		v.slab[i].setDecision(vs)
		v.slab[i].touch()
		return
	}
	var i int32
	if int(c.n) < c.capacity {
		if int(c.n) == len(v.slab) {
			v = c.grow()
		}
		i = c.n
		c.n++
	} else {
		i = c.evict(v)
		c.unindex(v, i)
	}
	s := &v.slab[i]
	for w := range kw {
		s.key[w].Store(kw[w])
	}
	s.setDecision(vs)
	s.ref.Store(0)
	v.place(uint64(tag)<<32 | uint64(uint32(i+1)))
}

func (c *lruCache) stats() (size, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.n), c.capacity
}

// export copies the shard's decisions made under one policy generation
// in the order the shard would evict them were no more hits to come:
// from the hand on, the items whose reference bit is clear, then those
// whose bit is set. An import replayed through put() enters them all
// with their bits clear, in that order, so the destination evicts them
// in the source's order. Decisions cached under any other generation are
// already unreachable (probes key on the current generation) and are
// dropped here rather than shipped.
func (c *lruCache) export(gen uint64) []CacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.view.Load()
	out := make([]CacheEntry, 0, c.n)
	var hot []CacheEntry
	for k := int32(0); k < c.n; k++ {
		s := &v.slab[(c.hand+k)%c.n]
		k := s.loadKey()
		if k.gen != gen {
			continue
		}
		ce := CacheEntry{BodyTag: k.tag, Violations: s.decision()}
		if s.ref.Load() == 0 {
			out = append(out, ce)
		} else {
			hot = append(hot, ce)
		}
	}
	return append(out, hot...)
}
