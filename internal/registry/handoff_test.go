package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/compile"
	"repro/internal/object"
)

// Cache handoff (ExportCache/ImportCache) moves a workload's hot
// decision set between registries when the plane migrates its shard.
// The properties checked here:
//
//  1. staleness — an imported snapshot never resurrects a decision made
//     under a superseded policy: whatever swaps interleave with the
//     export/import on either side, every post-import verdict reflects
//     the destination's CURRENT policy (a stale import would be a
//     policy bypass).
//  2. boundedness — an import can never grow the destination shard past
//     its configured LRU capacity, and prefers the most recently used
//     decisions when the snapshot is larger than the bound.
//  3. usefulness — after a handoff between registries serving the same
//     program, replaying the source's trace on the destination hits at
//     least as often as the same trace against a cold shard.
//
// Like the plane, every test registers one shared *compile.Program on
// both sides: the program pointer is the policy's identity.

// handoffCorpus pre-marshals n distinct ConfigMap bodies.
func handoffCorpus(t testing.TB, n int) []struct {
	obj  object.Object
	body []byte
} {
	t.Helper()
	corpus := make([]struct {
		obj  object.Object
		body []byte
	}, n)
	for i := range corpus {
		o := object.Object{
			"kind":     "ConfigMap",
			"metadata": map[string]any{"name": fmt.Sprintf("cm-%d", i)},
		}
		b, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		corpus[i].obj = o
		corpus[i].body = b
	}
	return corpus
}

func TestCacheHandoffPreservesHotSet(t *testing.T) {
	const n = 12
	corpus := handoffCorpus(t, n)
	pol := compile.MustCompile(permissive("w"))
	src := New(Config{CacheSize: 64})
	dst := New(Config{CacheSize: 64})
	cold := New(Config{CacheSize: 64})
	for _, r := range []*Registry{src, dst, cold} {
		if _, err := r.RegisterProgram("w", Selector{Namespace: "w"}, pol); err != nil {
			t.Fatal(err)
		}
	}
	srcEntry, _ := src.Entry("w")
	for _, rq := range corpus {
		src.Validate(srcEntry, rq.body, rq.obj)
	}
	snap, err := src.ExportCache("w")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != n {
		t.Fatalf("exported %d entries, want %d", len(snap.Entries), n)
	}
	imported, err := dst.ImportCache(snap)
	if err != nil || imported != n {
		t.Fatalf("ImportCache = (%d, %v), want (%d, nil)", imported, err, n)
	}
	// The destination's hit rate on the source's trace must be at least
	// a cold shard's on the same trace. Here it is total: every verdict
	// travels with the shard.
	dstEntry, _ := dst.Entry("w")
	coldEntry, _ := cold.Entry("w")
	for _, rq := range corpus {
		dst.Validate(dstEntry, rq.body, rq.obj)
		cold.Validate(coldEntry, rq.body, rq.obj)
	}
	dstHits := dstEntry.Metrics().CacheHits
	coldHits := coldEntry.Metrics().CacheHits
	if dstHits < coldHits {
		t.Errorf("handoff hit-rate regressed: dst %d hits < cold %d", dstHits, coldHits)
	}
	if dstHits != n {
		t.Errorf("dst hits = %d, want %d (full hot set retained)", dstHits, n)
	}
	if coldHits != 0 {
		t.Errorf("cold hits = %d, want 0", coldHits)
	}

	// Sentinel contract on both directions.
	if _, err := src.ExportCache("ghost"); !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("ExportCache(ghost) = %v, want ErrUnknownWorkload", err)
	}
	if _, err := dst.ImportCache(CacheSnapshot{Workload: "ghost"}); !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("ImportCache(ghost) = %v, want ErrUnknownWorkload", err)
	}
}

func TestCacheHandoffRespectsLRUBound(t *testing.T) {
	const srcCap, dstCap = 32, 8
	corpus := handoffCorpus(t, 20)
	pol := compile.MustCompile(permissive("w"))
	src := New(Config{CacheSize: srcCap})
	dst := New(Config{CacheSize: dstCap})
	for _, r := range []*Registry{src, dst} {
		if _, err := r.RegisterProgram("w", Selector{Namespace: "w"}, pol); err != nil {
			t.Fatal(err)
		}
	}
	srcEntry, _ := src.Entry("w")
	for _, rq := range corpus {
		src.Validate(srcEntry, rq.body, rq.obj)
	}
	snap, err := src.ExportCache("w")
	if err != nil {
		t.Fatal(err)
	}
	n, err := dst.ImportCache(snap)
	if err != nil {
		t.Fatal(err)
	}
	// The count reports the decisions the shard kept, not the snapshot's
	// length.
	if n != dstCap {
		t.Errorf("ImportCache = %d, want %d (the shard's capacity)", n, dstCap)
	}
	dstEntry, _ := dst.Entry("w")
	if size, cap := dstEntry.CacheStats(); size > cap || cap != dstCap {
		t.Fatalf("post-import shard = (%d, %d), exceeds bound %d", size, cap, dstCap)
	}
	// The bound keeps the most recently used tail of the snapshot.
	// Probe the tail first — a head miss would re-insert and evict it.
	probe := func(i int) bool {
		before := dstEntry.Metrics().CacheHits
		dst.Validate(dstEntry, corpus[i].body, corpus[i].obj)
		return dstEntry.Metrics().CacheHits > before
	}
	for i := len(corpus) - dstCap; i < len(corpus); i++ {
		if !probe(i) {
			t.Errorf("body %d: miss, want hit (MRU tail survives the bound)", i)
		}
	}
	for i := 0; i < len(corpus)-dstCap; i++ {
		if probe(i) {
			t.Errorf("body %d: hit, want miss (head evicted by the bound)", i)
		}
	}
}

// TestCacheHandoffNeedsOneProgram: two compiles of one validator are two
// programs, and a snapshot exported under one imports nothing into a
// registry enforcing the other — the destination decides afresh.
func TestCacheHandoffNeedsOneProgram(t *testing.T) {
	corpus := handoffCorpus(t, 4)
	v := permissive("w")
	src := New(Config{CacheSize: 16})
	dst := New(Config{CacheSize: 16})
	for _, r := range []*Registry{src, dst} {
		if _, err := r.Register("w", Selector{Namespace: "w"}, v); err != nil {
			t.Fatal(err)
		}
	}
	srcEntry, _ := src.Entry("w")
	for _, rq := range corpus {
		src.Validate(srcEntry, rq.body, rq.obj)
	}
	snap, err := src.ExportCache("w")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != len(corpus) {
		t.Fatalf("exported %d entries, want %d", len(snap.Entries), len(corpus))
	}
	if n, err := dst.ImportCache(snap); err != nil || n != 0 {
		t.Errorf("import across two compiles of one validator = (%d, %v), want (0, nil)", n, err)
	}
}

// TestCacheHandoffStalenessProperty drives two registries through
// random validate/swap/handoff interleavings. The plane's publish step
// is modeled by "sync" (both registries swap to the same new program);
// unsynced swaps on either side make a subsequent handoff stale.
// Whatever the interleaving: verdicts always reflect the destination's
// current policy and no shard exceeds its bound. Synced handoffs that
// import decisions must occur, or the property checks only refusals.
func TestCacheHandoffStalenessProperty(t *testing.T) {
	const (
		capacity = 8
		bodies   = 12
		ops      = 250
	)
	corpus := handoffCorpus(t, bodies)
	syncedImports := 0

	f := func(seed int64) bool {
		if seed == 0 {
			seed = 1
		}
		rng := &propRNG{s: uint64(seed)}
		newPolicy := func(allow bool) *compile.Program {
			if allow {
				return compile.MustCompile(permissive("w"))
			}
			return compile.MustCompile(restrictive("w"))
		}
		src := New(Config{CacheSize: capacity})
		dst := New(Config{CacheSize: capacity})
		// Both sides start synced on one program, as after a plane
		// publish.
		allowSrc, allowDst := true, true
		p0 := newPolicy(true)
		if _, err := src.RegisterProgram("w", Selector{Namespace: "w"}, p0); err != nil {
			t.Error(err)
			return false
		}
		if _, err := dst.RegisterProgram("w", Selector{Namespace: "w"}, p0); err != nil {
			t.Error(err)
			return false
		}
		srcEntry, _ := src.Entry("w")
		dstEntry, _ := dst.Entry("w")

		check := func(op int) bool {
			for _, pair := range []struct {
				r     *Registry
				e     *Entry
				allow bool
				name  string
			}{{src, srcEntry, allowSrc, "src"}, {dst, dstEntry, allowDst, "dst"}} {
				rq := corpus[rng.intn(bodies)]
				vs := pair.r.Validate(pair.e, rq.body, rq.obj)
				if got := len(vs) == 0; got != pair.allow {
					t.Errorf("op %d: STALE DECISION on %s: allowed=%v, current policy says %v",
						op, pair.name, got, pair.allow)
					return false
				}
				if size, cap := pair.e.CacheStats(); size > cap {
					t.Errorf("op %d: %s shard %d exceeds bound %d", op, pair.name, size, cap)
					return false
				}
			}
			return true
		}

		for op := 0; op < ops; op++ {
			switch rng.intn(6) {
			case 0: // traffic on src
				rq := corpus[rng.intn(bodies)]
				src.Validate(srcEntry, rq.body, rq.obj)
			case 1: // traffic on dst
				rq := corpus[rng.intn(bodies)]
				dst.Validate(dstEntry, rq.body, rq.obj)
			case 2: // unsynced swap on src
				allowSrc = rng.intn(2) == 0
				if err := src.SwapProgram("w", newPolicy(allowSrc)); err != nil {
					t.Error(err)
					return false
				}
			case 3: // unsynced swap on dst
				allowDst = rng.intn(2) == 0
				if err := dst.SwapProgram("w", newPolicy(allowDst)); err != nil {
					t.Error(err)
					return false
				}
			case 4: // synced publish: both sides share one program
				allow := rng.intn(2) == 0
				p := newPolicy(allow)
				if err := src.SwapProgram("w", p); err != nil {
					t.Error(err)
					return false
				}
				if err := dst.SwapProgram("w", p); err != nil {
					t.Error(err)
					return false
				}
				allowSrc, allowDst = allow, allow
			default: // handoff, possibly stale
				snap, err := src.ExportCache("w")
				if err != nil {
					t.Error(err)
					return false
				}
				n, err := dst.ImportCache(snap)
				if err != nil {
					t.Error(err)
					return false
				}
				if n > 0 {
					syncedImports++
				}
			}
			if !check(op) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	if syncedImports == 0 {
		t.Error("no handoff imported a decision: the synced case never occurred")
	}
}
