package registry

import (
	"encoding/json"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/object"
	"repro/internal/validator"
)

// The decision cache memoizes (generation, body tag) → violations in
// per-workload shards. Its safety properties, checked here over random
// Register/Swap/Deregister/Enforce interleavings:
//
//  1. freshness — a decision served after a Swap (or after a
//     Deregister+Register under the same name) always reflects the
//     CURRENT policy generation; serving a stale cached decision would
//     be a policy bypass.
//  2. boundedness — no workload's shard ever exceeds the configured
//     per-workload capacity, whatever the interleaving (request bodies
//     are attacker-controlled, so growth is an amplification
//     primitive), and the aggregate never exceeds shards × capacity.
//  3. shard lifecycle — deregistering a workload drops its shard: the
//     aggregate occupancy reported by CacheStats only counts live
//     entries, so a departed tenant cannot pin decision memory.

// permissive allows every ConfigMap; restrictive denies everything.
// The two are distinguishable through Validate, so a stale cached
// decision is directly observable as a verdict mismatch.
func permissive(w string) *validator.Validator {
	return &validator.Validator{
		Workload: w,
		Kinds:    map[string]*validator.Node{"ConfigMap": {Kind: validator.KindAny}},
		Mode:     validator.LockIfPresent,
	}
}

func restrictive(w string) *validator.Validator {
	return &validator.Validator{
		Workload: w,
		Kinds:    map[string]*validator.Node{},
		Mode:     validator.LockIfPresent,
	}
}

// propRNG is a xorshift RNG so interleavings replay from the quick seed.
type propRNG struct{ s uint64 }

func (r *propRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *propRNG) intn(n int) int { return int(r.next() % uint64(n)) }

func TestDecisionCacheFreshAndBoundedProperty(t *testing.T) {
	const (
		capacity  = 8
		workloads = 4
		bodies    = 8
		ops       = 300
	)
	// Pre-marshal the request corpus: distinct bodies → distinct cache
	// keys, and workloads*bodies > capacity forces eviction traffic.
	type req struct {
		obj  object.Object
		body []byte
	}
	corpus := make([]req, bodies)
	for i := range corpus {
		o := object.Object{
			"kind":     "ConfigMap",
			"metadata": map[string]any{"name": fmt.Sprintf("cm-%d", i)},
		}
		b, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		corpus[i] = req{obj: o, body: b}
	}

	f := func(seed int64) bool {
		if seed == 0 {
			seed = 1
		}
		rng := &propRNG{s: uint64(seed)}
		r := New(Config{CacheSize: capacity})
		// model[w] is the ground truth: whether w's CURRENT policy is
		// the permissive one; absent means not registered.
		model := map[string]bool{}
		name := func(i int) string { return fmt.Sprintf("w-%d", i) }

		for op := 0; op < ops; op++ {
			w := name(rng.intn(workloads))
			switch rng.intn(4) {
			case 0: // register
				if _, registered := model[w]; registered {
					continue
				}
				allow := rng.intn(2) == 0
				pol := restrictive(w)
				if allow {
					pol = permissive(w)
				}
				if _, err := r.Register(w, Selector{Namespace: w}, pol); err != nil {
					t.Errorf("register %s: %v", w, err)
					return false
				}
				model[w] = allow
			case 1: // swap
				if _, registered := model[w]; !registered {
					continue
				}
				allow := rng.intn(2) == 0
				pol := restrictive(w)
				if allow {
					pol = permissive(w)
				}
				if err := r.Swap(w, pol); err != nil {
					t.Errorf("swap %s: %v", w, err)
					return false
				}
				model[w] = allow
			case 2: // deregister
				if _, registered := model[w]; !registered {
					continue
				}
				if !r.Deregister(w) {
					t.Errorf("deregister %s reported not registered", w)
					return false
				}
				delete(model, w)
			default: // enforce
				allow, registered := model[w]
				e, ok := r.Resolve(w, "ConfigMap")
				if ok != registered {
					t.Errorf("resolve %s = %v, model says registered=%v", w, ok, registered)
					return false
				}
				if !registered {
					continue
				}
				rq := corpus[rng.intn(bodies)]
				vs := r.Validate(e, rq.body, rq.obj)
				if got := len(vs) == 0; got != allow {
					t.Errorf("STALE DECISION for %s: allowed=%v, current policy says allowed=%v",
						w, got, allow)
					return false
				}
			}
			// Sharded invariants: every live workload's shard respects
			// the per-workload bound and advertises the configured
			// capacity; the aggregate is consistent with the shards.
			total, totalCap := 0, 0
			for w := range model {
				e, ok := r.Entry(w)
				if !ok {
					t.Errorf("model workload %s missing from registry", w)
					return false
				}
				size, shardCap := e.CacheStats()
				if shardCap != capacity {
					t.Errorf("shard %s capacity = %d, want %d", w, shardCap, capacity)
					return false
				}
				if size > shardCap {
					t.Errorf("shard %s size %d exceeds bound %d after op %d",
						w, size, shardCap, op)
					return false
				}
				total += size
				totalCap += shardCap
			}
			if size, cap := r.CacheStats(); size != total || cap != totalCap {
				t.Errorf("aggregate CacheStats = (%d, %d), shards sum to (%d, %d): "+
					"a dead shard is pinning decisions", size, cap, total, totalCap)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDecisionCacheServesHits double-checks the property test exercises
// the cache at all: repeated identical validations against a stable
// policy must be answered from the cache.
func TestDecisionCacheServesHits(t *testing.T) {
	r := New(Config{CacheSize: 16})
	e, err := r.Register("w", Selector{Namespace: "w"}, permissive("w"))
	if err != nil {
		t.Fatal(err)
	}
	o := object.Object{"kind": "ConfigMap", "metadata": map[string]any{"name": "cm"}}
	body, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r.Validate(e, body, o)
	}
	if hits := e.Metrics().CacheHits; hits != 4 {
		t.Errorf("cache hits = %d, want 4", hits)
	}
}
