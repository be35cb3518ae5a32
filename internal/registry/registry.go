// Package registry maps workloads to their compiled KubeFence policies
// and resolves, per request, which policy governs an incoming API object.
//
// The paper generates one fine-grained policy per workload (operator); a
// real cluster runs many operators behind a single enforcement point. The
// registry is the multi-tenant core that makes that possible: each entry
// pairs a workload name with a Selector (namespace and/or resource kinds)
// and an atomically hot-swappable compiled policy (*compile.Program), so
// one proxy can enforce nginx, postgresql, rabbitmq, mlflow, and
// sonarqube policies concurrently, and any single policy can be
// regenerated and swapped in without restarting the proxy or touching
// its neighbors.
//
// Resolution picks the most specific matching entry (namespace+kind over
// namespace over kind over wildcard, ties broken by registration order),
// mirroring how per-namespace operator installs scope their authority.
//
// Policies are compiled at Register/Swap time (internal/compile) into
// flat, immutable rule programs, or handed over already compiled
// (RegisterProgram/SwapProgram); the request hot path executes the
// compiled program, and a swap publishes the whole new program
// atomically with a generation bump. The interpreted tree walk
// (internal/validator) is not on the request path; it is the oracle the
// compiled program is differentially tested against. An entry's policy
// is its program and nothing beside it: a verdict depends on one object
// and the program alone, so the raw judging walk, a cached decision and
// a decision handed off between registries can each stand in for
// validating the decoded object.
//
// An optional bounded decision cache (cache.go: second-chance eviction
// in a slab, so a full shard inserts without allocating, and hits that
// take no lock) memoizes validation outcomes keyed by (policy
// generation, request-body tag; tag.go): operators re-apply identical
// manifests on every reconcile loop, so idempotent re-validation is the
// common case under heavy traffic. The cache is sharded per workload —
// each entry owns its own bounded shard — so concurrent tenants never
// contend on a global cache lock and one tenant's traffic cannot evict
// another's decisions. Swapping a policy
// bumps the entry's generation, which implicitly invalidates every
// cached decision made under the old policy; deregistering a workload
// drops its shard outright.
//
// Each entry also aggregates per-workload enforcement metrics. It keeps no
// audit records: the enforcement point that answers a request records it.
package registry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/object"
	"repro/internal/validator"
)

// Selector scopes a workload policy to the requests it governs. The zero
// value matches every request (a cluster-wide policy).
type Selector struct {
	// Namespace restricts the entry to objects in one namespace; ""
	// matches any namespace.
	Namespace string
	// Kinds restricts the entry to the listed resource kinds; empty
	// matches any kind.
	Kinds []string
	// ClusterKinds lists cluster-scoped kinds the entry claims for
	// objects that carry no namespace (ClusterRole, PersistentVolume,
	// …). A namespace-scoped operator still creates such objects, and
	// they would otherwise never match its Namespace selector.
	ClusterKinds []string
}

// Matches reports whether the selector covers an object of the given
// namespace and kind.
func (s Selector) Matches(namespace, kind string) bool {
	if namespace == "" {
		for _, k := range s.ClusterKinds {
			if k == kind {
				return true
			}
		}
	}
	if s.Namespace != "" && s.Namespace != namespace {
		return false
	}
	if len(s.Kinds) == 0 {
		return true
	}
	for _, k := range s.Kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// clusterScoped lists the cluster-scoped kinds of the API groups this
// reproduction models; objects of these kinds carry no namespace.
var clusterScoped = map[string]bool{
	"Namespace":                      true,
	"Node":                           true,
	"ClusterRole":                    true,
	"ClusterRoleBinding":             true,
	"PersistentVolume":               true,
	"StorageClass":                   true,
	"IngressClass":                   true,
	"PriorityClass":                  true,
	"CustomResourceDefinition":       true,
	"ValidatingWebhookConfiguration": true,
	"MutatingWebhookConfiguration":   true,
}

// ClusterScopedKinds filters a kind list down to the cluster-scoped
// ones — the ClusterKinds a namespace-scoped workload policy should
// claim (typically from validator.AllowedKinds()).
func ClusterScopedKinds(kinds []string) []string {
	var out []string
	for _, k := range kinds {
		if clusterScoped[k] {
			out = append(out, k)
		}
	}
	return out
}

// specificity ranks selectors for resolution: exact namespace+kind beats
// exact namespace beats exact kind beats wildcard.
func (s Selector) specificity() int {
	score := 0
	if s.Namespace != "" {
		score += 2
	}
	if len(s.Kinds) > 0 {
		score++
	}
	return score
}

// Metrics aggregates per-workload enforcement counters.
type Metrics struct {
	// Generation is the policy generation the snapshot was taken under
	// (see Entry.Generation). Entry.Metrics reads all counters within
	// one stable generation window, so a snapshot never mixes counts
	// observed across a concurrent Swap with the wrong generation.
	Generation uint64
	// Requests counts inspected requests resolved to this workload.
	Requests uint64
	// Denied counts enforce-mode verdicts that deny.
	Denied uint64
	// CacheHits counts validations answered from the decision cache.
	CacheHits uint64
	// ValidationTime accumulates time spent in tree-overlap validation
	// (cache hits contribute nothing).
	ValidationTime time.Duration
	// Learned counts requests observed in learn mode (no validation).
	Learned uint64
	// ShadowRequests / ShadowDenied count shadow-mode verdicts
	// (cumulative across policy generations; a shadow "deny" forwards).
	ShadowRequests uint64
	ShadowDenied   uint64
}

// Entry is one registered workload policy. All methods are safe for
// concurrent use; the program is hot-swappable via Registry.SwapProgram.
type Entry struct {
	workload string
	selector Selector
	order    int // registration sequence, tie-breaker for resolution

	// version is the entry's current policy — its compiled program (the
	// only form of the policy an entry holds) and cache-key generation —
	// published as ONE immutable snapshot. A single atomic pointer
	// (rather than separate program/gen atomics) makes concurrent Swaps
	// linearizable: readers can never observe one swap's program paired
	// with another's generation.
	version atomic.Pointer[policyVersion]

	// cache is this workload's decision-cache shard (nil = disabled).
	cache *lruCache

	// mode is the rollout lifecycle mode (see mode.go); zero value is
	// ModeEnforce. modeMu serializes mode transitions against policy
	// swaps so Promote can pin the generation it gated.
	mode     atomic.Int32
	modeMu   sync.Mutex
	observer atomic.Pointer[Observer]
	shadow   *shadowWindow

	// The counters below are written by every request; the pad keeps
	// the fields above, which every request reads, off their line.
	_            [64]byte
	requests     atomic.Uint64
	denied       atomic.Uint64
	cacheHits    atomic.Uint64
	valNanos     atomic.Int64
	learned      atomic.Uint64
	shadowReqs   atomic.Uint64
	shadowDenied atomic.Uint64
}

// policyVersion is one immutable published state of an entry's policy.
// gen is drawn from the registry-global generation counter at
// registration and on every swap; it is part of the cache key.
// Registry-global monotonicity guarantees a re-registered workload can
// never collide with decisions cached under a prior entry of the same
// name (which would be a policy bypass) — the shard is per *Entry*, and
// generations never repeat across entries.
type policyVersion struct {
	// program is nil for a learning entry with no candidate yet.
	program *compile.Program
	gen     uint64
}

// Workload names the entry's workload.
func (e *Entry) Workload() string { return e.workload }

// Selector returns the entry's request scope.
func (e *Entry) Selector() Selector { return e.selector }

// Program returns the currently enforced policy, nil while a learning
// entry has none.
func (e *Entry) Program() *compile.Program { return e.version.Load().program }

// CacheStats reports the entry's decision-cache shard size and capacity
// (zeros when caching is disabled).
func (e *Entry) CacheStats() (size, capacity int) {
	if e.cache == nil {
		return 0, 0
	}
	return e.cache.stats()
}

// Generation returns the policy generation: an opaque registry-unique
// value that changes on every swap.
func (e *Entry) Generation() uint64 { return e.version.Load().gen }

// Metrics returns a snapshot of the entry's counters, read under the
// same atomic scheme as the policy itself: a seqlock-style loop keyed
// on the entry's published version pointer. The counter loads only
// count if the version observed before and after them is the same one,
// so a snapshot can never interleave with a concurrent Swap and report
// counters from two policy generations as one; Generation records the
// generation the stable read happened under.
func (e *Entry) Metrics() Metrics {
	for {
		before := e.version.Load()
		m := Metrics{
			Generation:     before.gen,
			Requests:       e.requests.Load(),
			Denied:         e.denied.Load(),
			CacheHits:      e.cacheHits.Load(),
			ValidationTime: time.Duration(e.valNanos.Load()),
			Learned:        e.learned.Load(),
			ShadowRequests: e.shadowReqs.Load(),
			ShadowDenied:   e.shadowDenied.Load(),
		}
		if e.version.Load() == before {
			return m
		}
		// A Swap landed mid-read; retry against the new version.
	}
}

// Config configures a Registry.
type Config struct {
	// CacheSize bounds each workload's decision-cache shard (number of
	// cached decisions per registered workload). Zero disables caching.
	CacheSize int
	// ShadowWindow sizes each workload's sliding window of shadow
	// verdicts (see mode.go); zero means DefaultShadowWindow.
	ShadowWindow int
}

// resolveIndex is the registry-wide match trie: entries bucketed by the
// (namespace, kind) signals resolution consults, rebuilt on every
// registry mutation. Bucket membership fully determines a selector's
// specificity (namespace+kind = 3, namespace = 2, kind = 1, wildcard =
// 0), so a lookup probes at most four buckets in strictly decreasing
// specificity instead of scanning every registered entry — resolution
// cost stays flat as the fleet grows to hundreds of workloads. Each
// bucket holds only its winner (lowest registration order): ties inside
// a bucket are always same-specificity, so the first entry inserted in
// resolution order is the one the linear scan would have returned.
type resolveIndex struct {
	// nsKind wins for entries selecting both a namespace and kinds.
	nsKind map[string]map[string]*Entry
	// nsAny holds namespace-only selectors.
	nsAny map[string]*Entry
	// kindOnly holds kind-only selectors, keyed per kind.
	kindOnly map[string]*Entry
	// wildcard is the zero-selector catch-all entry, if any.
	wildcard *Entry
	// cluster maps a claimed cluster-scoped kind to the single entry
	// that claimed it (uniqueness is enforced at registration). The
	// claiming entry competes for namespace-less objects at its own
	// selector's specificity, exactly as in the linear scan.
	cluster map[string]*Entry
}

// lookup resolves (namespace, kind) against the trie with the same
// semantics as scanning the sorted entry list: most specific match
// first, registration order breaking ties. It is generic over the key
// form so Resolve probes with strings and ResolveRaw with wire bytes
// through one body; the []byte probes convert inside the map index and
// do not allocate.
func lookup[T string | []byte](ix *resolveIndex, namespace, kind T) (*Entry, bool) {
	if len(namespace) != 0 {
		if e := ix.nsKind[string(namespace)][string(kind)]; e != nil {
			return e, true
		}
		if e := ix.nsAny[string(namespace)]; e != nil {
			return e, true
		}
		if e := ix.kindOnly[string(kind)]; e != nil {
			return e, true
		}
		if ix.wildcard != nil {
			return ix.wildcard, true
		}
		return nil, false
	}
	// Namespace-less objects: a cluster-kind claim competes at the
	// claiming selector's own specificity against kind-only and
	// wildcard entries (namespace selectors cannot match directly).
	best := ix.cluster[string(kind)]
	best = preferEntry(best, ix.kindOnly[string(kind)])
	best = preferEntry(best, ix.wildcard)
	return best, best != nil
}

// preferEntry keeps the candidate the sorted linear scan would see
// first: higher selector specificity, then lower registration order.
func preferEntry(a, b *Entry) *Entry {
	if a == nil {
		return b
	}
	if b == nil || a == b {
		return a
	}
	sa, sb := a.selector.specificity(), b.selector.specificity()
	if sa != sb {
		if sa > sb {
			return a
		}
		return b
	}
	if a.order <= b.order {
		return a
	}
	return b
}

// Registry holds the workload policy entries of one enforcement point.
// Register/Swap/Deregister/Resolve are all safe for concurrent use; the
// hot path (Resolve + Validate) takes no lock: it loads the published
// match trie and the entry's policy, and a decision-cache hit reads its
// shard under the shard's seqlock.
type Registry struct {
	// index is the registry-wide match trie, rebuilt alongside
	// resolution and published whole; Resolve and ResolveRaw probe the
	// one they load instead of scanning, and never take mu.
	index atomic.Pointer[resolveIndex]

	mu      sync.RWMutex
	entries map[string]*Entry
	// resolution is the entry list sorted by (specificity desc, order
	// asc). The trie answers lookups; the sorted list is kept as the
	// executable specification the trie is differentially tested
	// against (resolveScan).
	resolution []*Entry
	nextOrder  int
	// gens issues policy generations for all entries; see Entry.gen.
	gens atomic.Uint64

	cacheSize    int
	shadowWindow int
}

// New builds an empty registry.
func New(cfg Config) *Registry {
	r := &Registry{
		entries:      map[string]*Entry{},
		cacheSize:    cfg.CacheSize,
		shadowWindow: cfg.ShadowWindow,
	}
	r.index.Store(&resolveIndex{})
	return r
}

// ErrUnknownWorkload reports an operation addressed to a workload the
// registry has never seen (or that was deregistered). For a distribution
// protocol this is the PERMANENT failure class: retrying the same call
// cannot succeed until the workload is registered again, unlike
// ErrStaleGeneration races, which a re-gate resolves.
var ErrUnknownWorkload = fmt.Errorf("registry: unknown workload")

// errUnknown builds the canonical unknown-workload error.
func errUnknown(workload string) error {
	return fmt.Errorf("%w: %s is not registered", ErrUnknownWorkload, workload)
}

// Register compiles a workload policy and registers the program
// (RegisterProgram).
func (r *Registry) Register(workload string, sel Selector, v *validator.Validator) (*Entry, error) {
	prog, err := compile.Compile(v)
	if err != nil {
		return nil, fmt.Errorf("registry: workload %s: %w", workload, err)
	}
	return r.RegisterProgram(workload, sel, prog)
}

// RegisterProgram adds a workload policy in its compiled form; the entry
// enforces prog itself. The workload name must be unique, and its
// ClusterKinds must not overlap another entry's: cluster-scoped objects
// carry no namespace to disambiguate tenants, so an overlapping claim
// would silently route one tenant's objects to another's policy. Use
// Swap or SwapProgram to replace the policy of a registered workload.
func (r *Registry) RegisterProgram(workload string, sel Selector, prog *compile.Program) (*Entry, error) {
	if prog == nil {
		return nil, fmt.Errorf("registry: a policy is required for workload %s", workload)
	}
	return r.register(workload, sel, prog)
}

// register is the shared registration path. A nil program registers a
// learning entry with no policy: it fails closed under enforce/shadow
// until a candidate is swapped in.
func (r *Registry) register(workload string, sel Selector, prog *compile.Program) (*Entry, error) {
	if workload == "" {
		return nil, fmt.Errorf("registry: workload name is required")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[workload]; dup {
		return nil, fmt.Errorf("registry: workload %s already registered", workload)
	}
	for _, kind := range sel.ClusterKinds {
		for _, e := range r.entries {
			for _, claimed := range e.selector.ClusterKinds {
				if kind == claimed {
					return nil, fmt.Errorf(
						"registry: cluster-scoped kind %s already claimed by workload %s",
						kind, e.workload)
				}
			}
		}
	}
	e := &Entry{workload: workload, selector: sel, order: r.nextOrder,
		shadow: newShadowWindow(r.shadowWindow)}
	if r.cacheSize > 0 {
		e.cache = newLRUCache(r.cacheSize)
	}
	r.nextOrder++
	e.version.Store(&policyVersion{program: prog, gen: r.gens.Add(1)})
	r.entries[workload] = e
	r.rebuildLocked()
	return e, nil
}

// Swap compiles a workload's new policy and swaps the program in
// (SwapProgram).
func (r *Registry) Swap(workload string, v *validator.Validator) error {
	prog, err := compile.Compile(v)
	if err != nil {
		return fmt.Errorf("registry: workload %s: %w", workload, err)
	}
	return r.SwapProgram(workload, prog)
}

// SwapProgram atomically replaces the policy of a registered workload
// (policy updates without proxy restarts) with a compiled program,
// published as one immutable {program, generation} snapshot: a reader
// can never pair one swap's program with another's generation, and the
// generation change invalidates the workload's cached decisions. The
// read lock is held across the store so SwapProgram cannot report
// success for an entry a concurrent Deregister just removed.
func (r *Registry) SwapProgram(workload string, prog *compile.Program) error {
	if prog == nil {
		return fmt.Errorf("registry: a policy is required for workload %s", workload)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[workload]
	if !ok {
		return errUnknown(workload)
	}
	// The mode lock serializes the publish against Promote's
	// generation-pinned shadow→enforce transition (see mode.go): a swap
	// can land before the gate check (stale gen, promotion refused) or
	// after the promotion completes, never in between.
	e.modeMu.Lock()
	e.version.Store(&policyVersion{program: prog, gen: r.gens.Add(1)})
	e.modeMu.Unlock()
	return nil
}

// Deregister removes a workload. It reports whether the workload was
// registered.
func (r *Registry) Deregister(workload string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[workload]; !ok {
		return false
	}
	delete(r.entries, workload)
	r.rebuildLocked()
	return true
}

// rebuildLocked recomputes the resolution order and the match trie.
// Callers hold r.mu.
func (r *Registry) rebuildLocked() {
	res := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		res = append(res, e)
	}
	sort.Slice(res, func(i, j int) bool {
		si, sj := res[i].selector.specificity(), res[j].selector.specificity()
		if si != sj {
			return si > sj
		}
		return res[i].order < res[j].order
	})
	r.resolution = res

	ix := &resolveIndex{
		nsKind:   map[string]map[string]*Entry{},
		nsAny:    map[string]*Entry{},
		kindOnly: map[string]*Entry{},
		cluster:  map[string]*Entry{},
	}
	// Walking the sorted list and inserting only into empty bucket
	// slots makes every bucket hold exactly the entry the linear scan
	// would return for it: all collisions within a bucket are
	// same-specificity, so resolution order decides.
	for _, e := range res {
		sel := e.selector
		switch {
		case sel.Namespace != "" && len(sel.Kinds) > 0:
			byKind := ix.nsKind[sel.Namespace]
			if byKind == nil {
				byKind = map[string]*Entry{}
				ix.nsKind[sel.Namespace] = byKind
			}
			for _, k := range sel.Kinds {
				if byKind[k] == nil {
					byKind[k] = e
				}
			}
		case sel.Namespace != "":
			if ix.nsAny[sel.Namespace] == nil {
				ix.nsAny[sel.Namespace] = e
			}
		case len(sel.Kinds) > 0:
			for _, k := range sel.Kinds {
				if ix.kindOnly[k] == nil {
					ix.kindOnly[k] = e
				}
			}
		default:
			if ix.wildcard == nil {
				ix.wildcard = e
			}
		}
		for _, k := range sel.ClusterKinds {
			ix.cluster[k] = e // unique by registration-time check
		}
	}
	r.index.Store(ix)
}

// Resolve returns the most specific entry whose selector matches the
// namespace and kind, or false if no registered policy governs the
// request (the enforcement point should fail closed). Lookup probes the
// registry-wide match trie — at most four map probes — so cost is flat
// in the number of registered workloads. It takes no lock and writes
// nothing: the trie is an immutable snapshot that every registration
// and deregistration replaces.
func (r *Registry) Resolve(namespace, kind string) (*Entry, bool) {
	return lookup(r.index.Load(), namespace, kind)
}

// ResolveRaw is Resolve for wire bytes (e.g. compile.RawMeta fields):
// the map probes convert the keys without allocating, so routing a
// request straight off its scanned metadata is allocation-free.
func (r *Registry) ResolveRaw(namespace, kind []byte) (*Entry, bool) {
	return lookup(r.index.Load(), namespace, kind)
}

// resolveScan is the pre-trie linear resolution over the sorted entry
// list — the executable specification the trie is differentially
// tested against.
func (r *Registry) resolveScan(namespace, kind string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.resolution {
		if e.selector.Matches(namespace, kind) {
			return e, true
		}
	}
	return nil, false
}

// Entry returns the entry registered under a workload name.
func (r *Registry) Entry(workload string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[workload]
	return e, ok
}

// Workloads lists the registered workload names, sorted.
func (r *Registry) Workloads() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for w := range r.entries {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered workloads.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Metrics returns a per-workload snapshot of enforcement counters.
func (r *Registry) Metrics() map[string]Metrics {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]Metrics, len(r.entries))
	for w, e := range r.entries {
		out[w] = e.Metrics()
	}
	return out
}

// cacheKey identifies one validation decision within an entry's shard:
// the policy generation it was made under and the tag of the request
// body. A swap changes the generation, so stale decisions can never be
// served; the shard dies with its entry, so decisions can never leak
// across a Deregister/Register of the same workload name either.
type cacheKey struct {
	gen uint64
	tag Tag
}

// newCacheKey keys a decision on body's tag: tag when the caller
// carries it, else taken here.
func newCacheKey(gen uint64, body []byte, tag *Tag) cacheKey {
	if tag != nil {
		return cacheKey{gen: gen, tag: *tag}
	}
	return cacheKey{gen: gen, tag: BodyTag(body)}
}

// ValidateRawScanned attempts to decide a request from its raw wire
// bytes, without decoding them, under the entry's current mode. meta
// MUST be the successful compile.ScanRawMeta of body (the proxy scans
// once, for routing). The entry's decision-cache shard is consulted on
// the body tag first (operators re-apply identical manifests every
// reconcile loop, so the common case never even tokenizes), then the
// compiled program judges the bytes (compile.Program.JudgeRawScanned).
//
// decided=true returns the authoritative violation list, cut by
// capViolations: nil = allowed; a cached one verbatim, else the judging
// walk's diagnosis — Validate's list on the decoded body — cached under
// the same key. decided=false means the raw view could not rule: the
// caller decodes the body and calls Validate. Either way a request is
// counted once. The scan reads the prologue only, so the body may still
// not decode; the answers stay correct regardless — the judging walk
// reads every byte and decides nothing undecodable, a cached decision
// was made on a body that decoded, and a workload with no policy yet
// fails closed whatever the body is.
func (r *Registry) ValidateRawScanned(e *Entry, body []byte, meta compile.RawMeta) (vs []validator.Violation, decided bool) {
	return r.judge(e, e.Mode(), body, nil, nil, &meta, false)
}

// ValidateRawYAMLScanned is ValidateRawScanned for YAML wire bytes:
// meta MUST be the successful compile.ScanRawYAMLMeta of body, and the
// judging walk runs the YAML walker against the same compiled
// program. The cache short-circuit and all gating rules are shared with
// the JSON path.
func (r *Registry) ValidateRawYAMLScanned(e *Entry, body []byte, meta compile.RawMeta) (vs []validator.Violation, decided bool) {
	return r.judge(e, e.Mode(), body, nil, nil, &meta, true)
}

// ValidateRawHashed is ValidateRawScanned (ValidateRawYAMLScanned when
// yamlBody) under the mode m its caller read, for a caller that has also
// tagged the body: a non-nil tag MUST be the tag of body (BodyTag), and
// keys the decision cache in place of a tag taken here. The enforcement
// point's front end tags every inspected body once, before it scans it.
func (r *Registry) ValidateRawHashed(e *Entry, m Mode, body []byte, tag *Tag, meta compile.RawMeta, yamlBody bool) (vs []validator.Violation, decided bool) {
	return r.judge(e, m, body, tag, nil, &meta, yamlBody)
}

// Validate checks a decoded object against an entry's policy under the
// entry's current mode, executing the compiled rule program and
// consulting the entry's decision-cache shard when a request body is
// supplied; the list is cut by capViolations, cached or not. The body
// must be the exact wire bytes the object was decoded from; callers
// without access to the raw body pass nil to validate uncached.
func (r *Registry) Validate(e *Entry, body []byte, obj object.Object) []validator.Violation {
	vs, _ := r.judge(e, e.Mode(), body, nil, obj, nil, false)
	return vs
}

// ValidateHashed is Validate under the mode m its caller read, for a
// caller that has tagged the body: a non-nil tag MUST be the tag of body
// (BodyTag), and keys the decision cache in place of a tag taken here.
func (r *Registry) ValidateHashed(e *Entry, m Mode, body []byte, tag *Tag, obj object.Object) []validator.Violation {
	vs, _ := r.judge(e, m, body, tag, obj, nil, false)
	return vs
}

// judge is every Validate form: one cache-through decision over one
// loaded policy snapshot, so the generation keyed into the cache always
// matches the program that (on a miss) computes the decision. A snapshot
// with no policy (a learning entry whose candidate was never swapped in)
// fails closed. Otherwise, on a cache miss, the program judges obj, or,
// when meta is non-nil, the wire bytes meta is the scanned prologue of;
// an undecided raw walk counts nothing, since the caller's Validate call
// does. A nil tag is taken here, and only when the entry has a cache to
// key with it.
//
// The mode decides only what the verdict means, never how it is made:
// under ModeEnforce a violation counts as denied; under ModeShadow the
// verdict is folded into the cumulative shadow counters and then the
// per-generation window (ShadowStats reads them in the other order).
func (r *Registry) judge(e *Entry, m Mode, body []byte, tag *Tag, obj object.Object, meta *compile.RawMeta, yamlBody bool) (vs []validator.Violation, decided bool) {
	ver := e.version.Load()
	if ver.program == nil {
		vs = []validator.Violation{{Reason: fmt.Sprintf(
			"workload %s has no learned policy yet", e.workload)}}
	} else {
		var key cacheKey
		cached := e.cache != nil && len(body) > 0
		hit := false
		if cached {
			key = newCacheKey(ver.gen, body, tag)
			vs, hit = e.cache.get(key)
		}
		if hit {
			e.cacheHits.Add(1)
		} else {
			start := time.Now()
			if meta == nil {
				vs = ver.program.Validate(obj)
			} else if vs, decided = ver.program.JudgeRawScanned(*meta, body, yamlBody); !decided {
				return nil, false
			}
			vs = capViolations(vs)
			e.valNanos.Add(int64(time.Since(start)))
			if cached {
				e.cache.put(key, vs)
			}
		}
	}
	e.requests.Add(1)
	if m == ModeEnforce && len(vs) > 0 {
		e.denied.Add(1)
	}
	if m == ModeShadow {
		deny := len(vs) > 0
		e.shadowReqs.Add(1)
		if deny {
			e.shadowDenied.Add(1)
		}
		e.shadow.record(ver.gen, deny)
	}
	return vs, true
}

// MaxViolations bounds every violation list the registry returns,
// caches or exports: past it, one "+N more violations" entry
// stands for the rest. A body of 350 k unknown fields is 350 k
// violations out of the engines; a denial record, a shadow record, a
// cached decision and the 403 that echoes it keep 65.
const MaxViolations = 64

// capViolations is violations cut to MaxViolations and the count of the
// rest, in a new array: a cut list does not pin the engine's whole one.
func capViolations(violations []validator.Violation) []validator.Violation {
	if len(violations) <= MaxViolations {
		return violations
	}
	more := validator.Violation{Reason: fmt.Sprintf("+%d more violations", len(violations)-MaxViolations)}
	return append(violations[:MaxViolations:MaxViolations], more)
}

// CacheEntry is one exported decision: the body tag it was keyed by and
// the violation list it answered with (nil = allowed). The tag is under
// this process's key (Tag), so an entry means nothing to another
// process, and printing its tag would publish what keeps tags from
// colliding.
type CacheEntry struct {
	BodyTag    Tag
	Violations []validator.Violation
}

// CacheSnapshot is a transferable copy of one workload's decision-cache
// shard, taken by ExportCache for handoff to another registry (the
// plane moves a workload's hot set with it when a shard migrates
// between replicas). The snapshot is generation-checked twice: export
// keeps only decisions made under the source entry's current
// generation, and import re-keys them to the destination's current
// generation only while the destination provably serves the identical
// program — otherwise every entry is dropped as stale. Entries are
// ordered as the source would evict them, so the order survives the
// move.
//
// Identity is the program pointer. The plane installs one program on
// every replica that holds a workload, so its handoffs match; a caller
// that compiles the same validator twice (two Register or Swap calls)
// holds two programs, and a handoff between them imports nothing —
// the destination decides afresh, which fails safe.
type CacheSnapshot struct {
	Workload string
	// Generation is the source entry's policy generation at export —
	// every entry in the snapshot was decided under it.
	Generation uint64
	Entries    []CacheEntry

	// program pins the identity of the program the decisions were
	// computed by. Generations are registry-local (each registry issues
	// its own), so cross-registry staleness cannot be judged by number:
	// ImportCache accepts the snapshot only while the destination's
	// current version holds this exact program. In-process handoff
	// only: a wire-format handoff needs a content hash here instead, and
	// its entries' tags are keyed by this process's secret, so the
	// receiver would need that key too, sent as carefully as any
	// other secret (Tag).
	program *compile.Program
}

// ExportCache snapshots a workload's decision-cache shard for handoff.
// Decisions cached under superseded generations are dropped at export;
// a registry without caching exports an empty (but valid) snapshot.
func (r *Registry) ExportCache(workload string) (CacheSnapshot, error) {
	e, ok := r.Entry(workload)
	if !ok {
		return CacheSnapshot{}, errUnknown(workload)
	}
	ver := e.version.Load()
	snap := CacheSnapshot{
		Workload:   workload,
		Generation: ver.gen,
		program:    ver.program,
	}
	if e.cache != nil {
		snap.Entries = e.cache.export(ver.gen)
	}
	return snap, nil
}

// ImportCache merges an exported shard into the destination entry's
// cache, re-keyed to the destination's current generation, and reports
// how many imported decisions the shard holds afterwards. Stale
// snapshots import nothing: if the destination's current version does
// not hold the exact program the snapshot was exported under (a swap
// landed on either side since), every entry is dropped — an imported
// decision must be byte-for-byte the decision the destination would
// compute itself. Entries are replayed in the snapshot's eviction order
// through the shard's own bounded put, so the import can never grow the
// shard past its capacity: a snapshot larger than the shard keeps its
// tail, the decisions the source would have evicted last.
func (r *Registry) ImportCache(snap CacheSnapshot) (int, error) {
	e, ok := r.Entry(snap.Workload)
	if !ok {
		return 0, errUnknown(snap.Workload)
	}
	if e.cache == nil {
		return 0, nil
	}
	// Serialized against SwapProgram via modeMu: the generation
	// read here cannot be superseded while the entries are keyed to it,
	// so an import can never resurrect decisions across a concurrent
	// policy change.
	e.modeMu.Lock()
	defer e.modeMu.Unlock()
	ver := e.version.Load()
	if ver.program == nil || ver.program != snap.program {
		return 0, nil
	}
	for _, ce := range snap.Entries {
		e.cache.put(cacheKey{gen: ver.gen, tag: ce.BodyTag}, ce.Violations)
	}
	// Exported keys are distinct, so the shard keeps min(entries,
	// capacity) of them.
	return min(len(snap.Entries), e.cache.capacity), nil
}

// CacheStats reports the aggregate decision-cache occupancy: the sum of
// all per-workload shard sizes and the sum of their capacities (zeros
// when caching is disabled).
func (r *Registry) CacheStats() (size, capacity int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.entries {
		s, c := e.CacheStats()
		size += s
		capacity += c
	}
	return size, capacity
}
