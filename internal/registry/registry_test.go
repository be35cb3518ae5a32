package registry

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/object"
	"repro/internal/validator"
)

// policy builds a minimal validator allowing ConfigMaps with one data
// key, named for the workload.
func policy(t testing.TB, workload string) *validator.Validator {
	t.Helper()
	v, err := validator.Build([]object.Object{{
		"apiVersion": "v1",
		"kind":       "ConfigMap",
		"metadata":   map[string]any{"name": "cm", "namespace": "default"},
		"data":       map[string]any{"key": "string"},
	}}, validator.BuildOptions{Workload: workload})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSelectorMatches(t *testing.T) {
	tests := []struct {
		name      string
		sel       Selector
		namespace string
		kind      string
		want      bool
	}{
		{"wildcard matches anything", Selector{}, "ns", "Deployment", true},
		{"wildcard matches cluster-scoped", Selector{}, "", "ClusterRole", true},
		{"namespace match", Selector{Namespace: "ns"}, "ns", "Pod", true},
		{"namespace mismatch", Selector{Namespace: "ns"}, "other", "Pod", false},
		{"namespace excludes cluster-scoped", Selector{Namespace: "ns"}, "", "ClusterRole", false},
		{"kind match", Selector{Kinds: []string{"Pod", "Service"}}, "any", "Service", true},
		{"kind mismatch", Selector{Kinds: []string{"Pod"}}, "any", "Service", false},
		{"namespace+kind both required", Selector{Namespace: "ns", Kinds: []string{"Pod"}}, "ns", "Service", false},
		{"namespace+kind match", Selector{Namespace: "ns", Kinds: []string{"Pod"}}, "ns", "Pod", true},
		{"cluster kind claims namespace-less object", Selector{Namespace: "ns", ClusterKinds: []string{"ClusterRole"}}, "", "ClusterRole", true},
		{"cluster kind only for namespace-less", Selector{Namespace: "ns", ClusterKinds: []string{"ClusterRole"}}, "other", "ClusterRole", false},
		{"cluster kind mismatch", Selector{Namespace: "ns", ClusterKinds: []string{"ClusterRole"}}, "", "PersistentVolume", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.sel.Matches(tt.namespace, tt.kind); got != tt.want {
				t.Errorf("Selector%+v.Matches(%q, %q) = %v, want %v",
					tt.sel, tt.namespace, tt.kind, got, tt.want)
			}
		})
	}
}

func TestResolvePriority(t *testing.T) {
	r := New(Config{})
	register := func(workload string, sel Selector) {
		t.Helper()
		if _, err := r.Register(workload, sel, policy(t, workload)); err != nil {
			t.Fatal(err)
		}
	}
	// Registered deliberately from least to most specific: resolution
	// must order by specificity, not registration order.
	register("wildcard", Selector{})
	register("by-kind", Selector{Kinds: []string{"ConfigMap"}})
	register("by-namespace", Selector{Namespace: "tenant"})
	register("exact", Selector{Namespace: "tenant", Kinds: []string{"ConfigMap"}})

	tests := []struct {
		name      string
		namespace string
		kind      string
		want      string
	}{
		{"exact namespace+kind wins", "tenant", "ConfigMap", "exact"},
		{"namespace beats kind", "tenant", "Secret", "by-namespace"},
		{"kind beats wildcard", "other", "ConfigMap", "by-kind"},
		{"wildcard catches the rest", "other", "Secret", "wildcard"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e, ok := r.Resolve(tt.namespace, tt.kind)
			if !ok {
				t.Fatalf("Resolve(%q, %q): no entry", tt.namespace, tt.kind)
			}
			if e.Workload() != tt.want {
				t.Errorf("Resolve(%q, %q) = %s, want %s",
					tt.namespace, tt.kind, e.Workload(), tt.want)
			}
		})
	}
}

func TestResolveTieBreaksByRegistrationOrder(t *testing.T) {
	r := New(Config{})
	for _, w := range []string{"first", "second"} {
		if _, err := r.Register(w, Selector{Namespace: "shared"}, policy(t, w)); err != nil {
			t.Fatal(err)
		}
	}
	e, ok := r.Resolve("shared", "ConfigMap")
	if !ok || e.Workload() != "first" {
		t.Fatalf("equal specificity should resolve to first registrant, got %v", e)
	}
}

func TestResolveFailsClosed(t *testing.T) {
	r := New(Config{})
	if _, err := r.Register("tenant", Selector{Namespace: "tenant"}, policy(t, "tenant")); err != nil {
		t.Fatal(err)
	}
	if e, ok := r.Resolve("unclaimed", "ConfigMap"); ok {
		t.Fatalf("namespace with no policy resolved to %s", e.Workload())
	}
	if _, ok := r.Resolve("", "ClusterRole"); ok {
		t.Fatal("unclaimed cluster-scoped kind should not resolve")
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New(Config{})
	if _, err := r.Register("", Selector{}, policy(t, "w")); err == nil {
		t.Error("empty workload name should be rejected")
	}
	if _, err := r.Register("w", Selector{}, nil); err == nil {
		t.Error("nil validator should be rejected")
	}
	if _, err := r.Register("w", Selector{}, policy(t, "w")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("w", Selector{}, policy(t, "w")); err == nil {
		t.Error("duplicate workload should be rejected")
	}
	if err := r.Swap("missing", policy(t, "missing")); err == nil {
		t.Error("swapping an unregistered workload should fail")
	}
	if err := r.Swap("w", nil); err == nil {
		t.Error("swapping in a nil validator should fail")
	}
}

func TestSwapBumpsGenerationAndKeepsNeighbors(t *testing.T) {
	r := New(Config{})
	a, err := r.Register("a", Selector{Namespace: "a"}, policy(t, "a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Register("b", Selector{Namespace: "b"}, policy(t, "b"))
	if err != nil {
		t.Fatal(err)
	}
	bProg, bGen := b.Program(), b.Generation()
	aProg, aGen := a.Program(), a.Generation()
	next := policy(t, "a2")
	if err := r.Swap("a", next); err != nil {
		t.Fatal(err)
	}
	if a.Program() == aProg {
		t.Error("swap did not install the new policy")
	}
	if a.Generation() == aGen {
		t.Error("generation unchanged after swap")
	}
	if b.Program() != bProg || b.Generation() != bGen {
		t.Error("swap of a disturbed b")
	}
}

// TestRegisterProgramInstallsItsProgram: RegisterProgram and
// SwapProgram install the program they are handed, not a recompiled
// copy; Register and Swap compile what they are given afresh.
func TestRegisterProgramInstallsItsProgram(t *testing.T) {
	r := New(Config{})
	v1, v2 := policy(t, "w"), policy(t, "w2")
	p1, p2 := compile.MustCompile(v1), compile.MustCompile(v2)
	e, err := r.RegisterProgram("w", Selector{}, p1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Program() != p1 {
		t.Error("RegisterProgram did not install the program it was handed")
	}
	if err := r.SwapProgram("w", p2); err != nil {
		t.Fatal(err)
	}
	if e.Program() != p2 {
		t.Error("SwapProgram did not install the program it was handed")
	}
	if err := r.Swap("w", v1); err != nil {
		t.Fatal(err)
	}
	if got := e.Program(); got == p1 || got == p2 {
		t.Error("Swap did not install a program compiled afresh from its validator")
	}
	if _, err := r.RegisterProgram("x", Selector{}, nil); err == nil {
		t.Error("RegisterProgram with a nil program should fail")
	}
	if err := r.SwapProgram("w", nil); err == nil {
		t.Error("SwapProgram with a nil program should fail")
	}
	if err := r.SwapProgram("missing", p1); !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("SwapProgram(missing) = %v, want ErrUnknownWorkload", err)
	}
}

func TestDeregister(t *testing.T) {
	r := New(Config{})
	if _, err := r.Register("w", Selector{}, policy(t, "w")); err != nil {
		t.Fatal(err)
	}
	if !r.Deregister("w") {
		t.Fatal("deregister reported missing workload")
	}
	if r.Deregister("w") {
		t.Fatal("second deregister should report false")
	}
	if _, ok := r.Resolve("any", "ConfigMap"); ok {
		t.Fatal("deregistered entry still resolves")
	}
}

func validBody(name string) (object.Object, []byte) {
	o := object.Object{
		"apiVersion": "v1",
		"kind":       "ConfigMap",
		"metadata":   map[string]any{"name": name, "namespace": "default"},
		"data":       map[string]any{"key": "value"},
	}
	return o, []byte(fmt.Sprintf(`{"kind":"ConfigMap","name":%q}`, name))
}

func TestValidateCachesDecisions(t *testing.T) {
	r := New(Config{CacheSize: 8})
	e, err := r.Register("w", Selector{}, policy(t, "w"))
	if err != nil {
		t.Fatal(err)
	}
	o, body := validBody("cm")
	for i := 0; i < 3; i++ {
		if vs := r.Validate(e, body, o); len(vs) != 0 {
			t.Fatalf("violations: %v", vs)
		}
	}
	m := e.Metrics()
	if m.Requests != 3 || m.CacheHits != 2 {
		t.Errorf("metrics = %+v, want Requests 3 CacheHits 2", m)
	}
	if size, capacity := e.CacheStats(); size != 1 || capacity != 8 {
		t.Errorf("shard stats = (%d, %d), want (1, 8)", size, capacity)
	}
}

func TestSwapInvalidatesCachedDecisions(t *testing.T) {
	r := New(Config{CacheSize: 8})
	e, err := r.Register("w", Selector{}, policy(t, "w"))
	if err != nil {
		t.Fatal(err)
	}
	o, body := validBody("cm")
	if vs := r.Validate(e, body, o); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	// Swap in a policy that rejects the object (different data key).
	deny, err := validator.Build([]object.Object{{
		"apiVersion": "v1",
		"kind":       "ConfigMap",
		"metadata":   map[string]any{"name": "cm", "namespace": "default"},
		"data":       map[string]any{"other": "string"},
	}}, validator.BuildOptions{Workload: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Swap("w", deny); err != nil {
		t.Fatal(err)
	}
	if vs := r.Validate(e, body, o); len(vs) == 0 {
		t.Fatal("stale cached allow served after policy swap")
	}
}

func TestValidateWithoutBodySkipsCache(t *testing.T) {
	r := New(Config{CacheSize: 8})
	e, err := r.Register("w", Selector{}, policy(t, "w"))
	if err != nil {
		t.Fatal(err)
	}
	o, _ := validBody("cm")
	r.Validate(e, nil, o)
	r.Validate(e, nil, o)
	if hits := e.Metrics().CacheHits; hits != 0 {
		t.Errorf("nil body should bypass the cache, got %d hits", hits)
	}
	if size, _ := r.CacheStats(); size != 0 {
		t.Errorf("cache size = %d, want 0", size)
	}
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRUCache(2)
	keys := make([]cacheKey, 3)
	for i := range keys {
		keys[i] = cacheKey{gen: uint64(i)}
		c.put(keys[i], nil)
	}
	if _, ok := c.get(keys[0]); ok {
		t.Error("oldest key should have been evicted")
	}
	// find looks without using: a get would set the reference bit.
	for _, k := range keys[1:] {
		if c.find(&k) < 0 {
			t.Errorf("key %v missing", k)
		}
	}
	// Touch keys[1], insert a fourth: keys[2] is now the LRU victim.
	c.get(keys[1])
	k3 := cacheKey{gen: 3}
	c.put(k3, nil)
	if _, ok := c.get(keys[2]); ok {
		t.Error("LRU victim survived")
	}
	if _, ok := c.get(keys[1]); !ok {
		t.Error("recently used key evicted")
	}
	if size, capacity := c.stats(); size != 2 || capacity != 2 {
		t.Errorf("stats = (%d, %d), want (2, 2)", size, capacity)
	}
}

// TestRegistryViolationsGroupsByWorkload: a denial is counted under the
// workload whose entry judged it, and under no other.
func TestRegistryViolationsGroupsByWorkload(t *testing.T) {
	r := New(Config{})
	if _, err := r.Register("a", Selector{Namespace: "a"}, policy(t, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("b", Selector{Namespace: "b"}, policy(t, "b")); err != nil {
		t.Fatal(err)
	}
	bad := object.Object{"apiVersion": "v1", "kind": "Secret",
		"metadata": map[string]any{"name": "bad", "namespace": "a"}}
	e, ok := r.Resolve("a", "Secret")
	if !ok || e.Workload() != "a" {
		t.Fatalf("Resolve(a, Secret) = %v, %v; want entry a", e, ok)
	}
	if vs := r.Validate(e, []byte(`{"kind":"Secret","metadata":{"name":"bad","namespace":"a"}}`), bad); len(vs) == 0 {
		t.Fatal("a Secret passed a ConfigMap policy")
	}
	got := r.Metrics()
	if got["a"].Denied != 1 || got["b"].Denied != 0 {
		t.Fatalf("denied a=%d b=%d, want the one denial under a", got["a"].Denied, got["b"].Denied)
	}
}

func TestWorkloadsAndMetrics(t *testing.T) {
	r := New(Config{})
	for _, w := range []string{"b", "a"} {
		if _, err := r.Register(w, Selector{}, policy(t, w)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Workloads(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Workloads() = %v, want [a b]", got)
	}
	if r.Len() != 2 {
		t.Errorf("Len() = %d, want 2", r.Len())
	}
	if m := r.Metrics(); len(m) != 2 {
		t.Errorf("Metrics() has %d entries, want 2", len(m))
	}
}

func TestRegisterRejectsOverlappingClusterKinds(t *testing.T) {
	r := New(Config{})
	sel := Selector{Namespace: "a", ClusterKinds: []string{"ClusterRole", "StorageClass"}}
	if _, err := r.Register("a", sel, policy(t, "a")); err != nil {
		t.Fatal(err)
	}
	_, err := r.Register("b", Selector{Namespace: "b", ClusterKinds: []string{"ClusterRole"}}, policy(t, "b"))
	if err == nil {
		t.Fatal("overlapping ClusterKinds claim should be rejected: cluster-scoped objects have no namespace to disambiguate tenants")
	}
	// Disjoint claims coexist.
	if _, err := r.Register("c", Selector{Namespace: "c", ClusterKinds: []string{"PersistentVolume"}}, policy(t, "c")); err != nil {
		t.Fatal(err)
	}
}

// TestReregisterDoesNotServeStaleCachedDecisions guards against the
// policy bypass where Deregister + Register of the same workload name
// could collide with decisions cached under the prior entry: the
// re-registered strict policy must be consulted, not the cached allow.
func TestReregisterDoesNotServeStaleCachedDecisions(t *testing.T) {
	r := New(Config{CacheSize: 8})
	e, err := r.Register("w", Selector{}, policy(t, "w"))
	if err != nil {
		t.Fatal(err)
	}
	o, body := validBody("cm")
	if vs := r.Validate(e, body, o); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	if !r.Deregister("w") {
		t.Fatal("deregister failed")
	}
	// Re-register the same name with a policy that rejects ConfigMaps.
	deny, err := validator.Build([]object.Object{{
		"apiVersion": "v1",
		"kind":       "Secret",
		"metadata":   map[string]any{"name": "s", "namespace": "default"},
	}}, validator.BuildOptions{Workload: "w"})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.Register("w", Selector{}, deny)
	if err != nil {
		t.Fatal(err)
	}
	if vs := r.Validate(e2, body, o); len(vs) == 0 {
		t.Fatal("stale cached allow served after deregister + re-register")
	}
}
