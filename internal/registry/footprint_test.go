package registry

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/compile"
)

// TestIdleWorkloadRetainsLittle: a registration that has seen no
// traffic costs its entry and its share of the resolve index, not a
// decision cache sized for its bound or violation and shadow logs sized
// for theirs. The 256 workloads share one program, so what is measured
// is the per-workload cost alone. Not parallel: it reads the heap.
func TestIdleWorkloadRetainsLittle(t *testing.T) {
	const (
		workloads = 256
		ceiling   = 8 << 10 // bytes per idle workload
	)
	prog, err := compile.Compile(policy(t, "shared"))
	if err != nil {
		t.Fatal(err)
	}
	reg := New(Config{CacheSize: 1024})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < workloads; i++ {
		if _, err := reg.RegisterProgram(fmt.Sprintf("w%d", i), Selector{Namespace: fmt.Sprintf("ns%d", i)}, prog); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(reg)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / workloads
	t.Logf("%d B retained per idle workload", per)
	if per > ceiling {
		t.Errorf("an idle workload retains %d B, ceiling %d B", per, ceiling)
	}
}

// TestDecisionCacheRetainsBoundedBytesUnderChurn: a full shard keeps its
// size however many distinct bodies pass through it. After 2^20 further
// distinct keys each, the shards retain what they retained right after
// they filled, within 10 %, and no more than their slab of decisions and
// its index; the slab never outgrows the capacity. Not parallel: it
// reads the heap. Skipped under the race detector (raceEnabled); the
// plain test run keeps it.
func TestDecisionCacheRetainsBoundedBytesUnderChurn(t *testing.T) {
	if raceEnabled {
		t.Skip("a single-goroutine heap measurement: the race detector adds nothing to it, and 2^20 keys per shard take 13 s under it on 2 cores")
	}
	const (
		shards   = 3
		capacity = 1024
		churn    = 1 << 20 // distinct keys per shard after the fill
		ceiling  = 96 << 10
	)
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	var in [8]byte
	fill := func(c *lruCache, from, to uint64) {
		for n := from; n < to; n++ {
			binary.LittleEndian.PutUint64(in[:], n)
			c.put(cacheKey{tag: BodyTag(in[:])}, nil)
		}
	}
	before := heap()
	cs := make([]*lruCache, shards)
	for i := range cs {
		cs[i] = newLRUCache(capacity)
		fill(cs[i], 0, capacity)
	}
	full := (heap() - before) / shards
	for _, c := range cs {
		fill(c, capacity, capacity+churn)
	}
	churned := (heap() - before) / shards
	runtime.KeepAlive(cs)
	t.Logf("a full shard retains %d B after its fill, %d B after %d more keys", full, churned, churn)
	if churned > full+full/10 || churned > ceiling {
		t.Errorf("a churned shard retains %d B, want within 10 %% of %d B and under %d B", churned, full, ceiling)
	}
	for _, c := range cs {
		if size, _ := c.stats(); size != capacity || len(c.view.Load().slab) > c.capacity {
			t.Errorf("slab holds %d items in %d slots, capacity %d", size, len(c.view.Load().slab), c.capacity)
		}
	}
}
