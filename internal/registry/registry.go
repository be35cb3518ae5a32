// Package registry maps workloads to their KubeFence policy validators
// and resolves, per request, which policy governs an incoming API object.
//
// The paper generates one fine-grained policy per workload (operator); a
// real cluster runs many operators behind a single enforcement point. The
// registry is the multi-tenant core that makes that possible: each entry
// pairs a workload name with a Selector (namespace and/or resource kinds)
// and an atomically hot-swappable *validator.Validator, so one proxy can
// enforce nginx, postgresql, rabbitmq, mlflow, and sonarqube policies
// concurrently, and any single policy can be regenerated and swapped in
// without restarting the proxy or touching its neighbors.
//
// Resolution picks the most specific matching entry (namespace+kind over
// namespace over kind over wildcard, ties broken by registration order),
// mirroring how per-namespace operator installs scope their authority.
//
// Policies are compiled at Register/Swap time (internal/compile) into
// flat, immutable rule programs; the request hot path executes the
// compiled program, and a swap publishes the whole new program
// atomically with a generation bump. The interpreted tree walk
// (internal/validator) is not on the request path; it is the oracle the
// compiled program is differentially tested against.
//
// An optional bounded LRU decision cache (cache.go: an exact LRU
// threaded through a slab, so a full shard inserts without allocating)
// memoizes validation outcomes keyed by (policy generation, request-body
// hash): operators re-apply
// identical manifests on every reconcile loop, so idempotent
// re-validation is the common case under heavy traffic. The cache is
// sharded per workload — each entry owns its own bounded LRU — so
// concurrent tenants never contend on a global cache lock and one
// tenant's traffic cannot evict another's decisions. Swapping a policy
// bumps the entry's generation, which implicitly invalidates every
// cached decision made under the old policy; deregistering a workload
// drops its shard outright.
//
// Each entry also aggregates per-workload enforcement metrics and keeps a
// bounded log of per-workload violation records for auditing.
package registry

import (
	"crypto/sha256"
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

// Invariant is a cross-resource policy rule attached to a workload
// entry beside its schema policy: where the schema validator constrains
// the *shape* of a single object, an invariant constrains a relationship
// the schema cannot express (e.g. "the DB pod never mounts the API's
// secrets" — secret names generalize to free strings in schema
// policies, so ownership must be checked as a separate rule class).
//
// Check is called only for objects whose schema verdict is clean, and
// MUST be stateless with respect to admission order: its verdict may
// depend only on the submitted object and the invariant's own immutable
// configuration, so concurrent admissions and arbitrary arrival
// interleavings cannot change what is allowed (the property the
// cross-resource tests verify).
type Invariant interface {
	// Name identifies the rule in diagnostics.
	Name() string
	// Check returns the violations the object commits against the rule
	// (empty/nil = clean).
	Check(obj object.Object) []validator.Violation
}

// Record is one denied request attributed to a workload, for auditing.
type Record struct {
	Time       time.Time
	Workload   string
	User       string
	Method     string
	RequestURI string
	Kind       string
	Name       string
	Violations []validator.Violation
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
	// Denied counts requests rejected by this workload's policy.
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
// concurrent use; the policy pointer is hot-swappable via Registry.Swap.
type Entry struct {
	workload string
	selector Selector
	order    int // registration sequence, tie-breaker for resolution

	// version is the entry's current policy in every form the hot path
	// needs — validator, compiled program, and cache-key generation —
	// published as ONE immutable snapshot. A single atomic pointer
	// (rather than separate policy/program/gen atomics) makes
	// concurrent Swaps linearizable: readers can never observe one
	// swap's program paired with another's validator or generation.
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

	requests     atomic.Uint64
	denied       atomic.Uint64
	cacheHits    atomic.Uint64
	valNanos     atomic.Int64
	learned      atomic.Uint64
	shadowReqs   atomic.Uint64
	shadowDenied atomic.Uint64

	violations *BoundedLog
	shadowLog  *BoundedLog
}

// policyVersion is one immutable published state of an entry's policy.
// gen is drawn from the registry-global generation counter at
// registration and on every swap; it is part of the cache key.
// Registry-global monotonicity guarantees a re-registered workload can
// never collide with decisions cached under a prior entry of the same
// name (which would be a policy bypass) — the shard is per *Entry*, and
// generations never repeat across entries.
type policyVersion struct {
	policy  *validator.Validator
	program *compile.Program
	// invariants are the entry's cross-resource rules, evaluated after a
	// clean schema verdict. Part of the snapshot so a SetInvariants can
	// never be observed torn against a concurrent policy swap, and part
	// of the generation so cached decisions made without the rules are
	// invalidated when rules arrive.
	invariants []Invariant
	gen        uint64
}

// Workload names the entry's workload.
func (e *Entry) Workload() string { return e.workload }

// Selector returns the entry's request scope.
func (e *Entry) Selector() Selector { return e.selector }

// Policy returns the currently enforced validator.
func (e *Entry) Policy() *validator.Validator { return e.version.Load().policy }

// Program returns the compiled form of the currently enforced policy.
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

// Invariants returns the entry's cross-resource rules (nil when none
// are attached).
func (e *Entry) Invariants() []Invariant { return e.version.Load().invariants }

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

// MaxRecords bounds each entry's violation log so a hostile client cannot
// grow proxy memory without bound; the newest records are kept.
const MaxRecords = 1024

// RecordViolation appends a denial record to the entry's bounded,
// contention-free log and bumps the denied counter.
func (e *Entry) RecordViolation(rec Record) {
	rec.Workload = e.workload
	e.denied.Add(1)
	e.violations.Append(rec)
}

// Violations returns a snapshot of the entry's denial records.
func (e *Entry) Violations() []Record {
	return e.violations.Snapshot()
}

// ResetViolations clears the entry's denial log.
func (e *Entry) ResetViolations() {
	e.violations.Reset()
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
// first, registration order breaking ties.
func (ix *resolveIndex) lookup(namespace, kind string) (*Entry, bool) {
	if namespace != "" {
		if e := ix.nsKind[namespace][kind]; e != nil {
			return e, true
		}
		if e := ix.nsAny[namespace]; e != nil {
			return e, true
		}
		if e := ix.kindOnly[kind]; e != nil {
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
	best := ix.cluster[kind]
	best = preferEntry(best, ix.kindOnly[kind])
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
// hot path (Resolve + Validate) takes only a read lock plus atomic loads
// and the resolved entry's own cache-shard lock.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	// resolution is the entry list sorted by (specificity desc, order
	// asc). The trie below answers lookups; the sorted list is kept as
	// the executable specification the trie is differentially tested
	// against (resolveScan).
	resolution []*Entry
	// index is the registry-wide match trie rebuilt alongside
	// resolution; Resolve and ResolveRaw probe it instead of scanning.
	index     resolveIndex
	nextOrder int
	// gens issues policy generations for all entries; see Entry.gen.
	gens atomic.Uint64

	cacheSize    int
	shadowWindow int
}

// New builds an empty registry.
func New(cfg Config) *Registry {
	return &Registry{
		entries:      map[string]*Entry{},
		cacheSize:    cfg.CacheSize,
		shadowWindow: cfg.ShadowWindow,
	}
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

// Register adds a workload policy. The workload name must be unique, and
// its ClusterKinds must not overlap another entry's: cluster-scoped
// objects carry no namespace to disambiguate tenants, so an overlapping
// claim would silently route one tenant's objects to another's policy.
// Use Swap to replace the policy of a registered workload.
func (r *Registry) Register(workload string, sel Selector, v *validator.Validator) (*Entry, error) {
	if v == nil {
		return nil, fmt.Errorf("registry: validator is required for workload %s", workload)
	}
	prog, err := compile.Compile(v)
	if err != nil {
		return nil, fmt.Errorf("registry: workload %s: %w", workload, err)
	}
	return r.register(workload, sel, v, prog)
}

// register is the shared registration path. A nil validator registers a
// learning entry with no policy: it fails closed under enforce/shadow
// until a candidate is swapped in.
func (r *Registry) register(workload string, sel Selector, v *validator.Validator, prog *compile.Program) (*Entry, error) {
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
		shadow:     newShadowWindow(r.shadowWindow),
		violations: NewBoundedLog(MaxRecords),
		shadowLog:  NewBoundedLog(MaxRecords)}
	if r.cacheSize > 0 {
		e.cache = newLRUCache(r.cacheSize)
	}
	r.nextOrder++
	e.version.Store(&policyVersion{policy: v, program: prog, gen: r.gens.Add(1)})
	r.entries[workload] = e
	r.rebuildLocked()
	return e, nil
}

// Swap atomically replaces the policy of a registered workload (policy
// updates without proxy restarts). The validator is compiled before the
// swap and published as one immutable {validator, program, generation}
// snapshot: a reader can never pair one swap's program with another's
// validator or generation, and the generation change invalidates the
// workload's cached decisions. The read lock is held across the store
// so Swap cannot report success for an entry a concurrent Deregister
// just removed.
func (r *Registry) Swap(workload string, v *validator.Validator) error {
	if v == nil {
		return fmt.Errorf("registry: validator is required for workload %s", workload)
	}
	prog, err := compile.Compile(v)
	if err != nil {
		return fmt.Errorf("registry: workload %s: %w", workload, err)
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
	// after the promotion completes, never in between. The entry's
	// cross-resource invariants carry over — a policy refresh must not
	// silently drop the rules attached beside it.
	e.modeMu.Lock()
	cur := e.version.Load()
	e.version.Store(&policyVersion{policy: v, program: prog,
		invariants: cur.invariants, gen: r.gens.Add(1)})
	e.modeMu.Unlock()
	return nil
}

// SetInvariants attaches (or, with nil, clears) the cross-resource
// rules of a registered workload, preserving its current schema policy.
// Published as a fresh snapshot with a new generation: decisions cached
// without the rules can never satisfy a request made under them, and a
// concurrent Swap can never be observed torn against the rule change.
func (r *Registry) SetInvariants(workload string, invs []Invariant) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[workload]
	if !ok {
		return errUnknown(workload)
	}
	e.modeMu.Lock()
	cur := e.version.Load()
	e.version.Store(&policyVersion{policy: cur.policy, program: cur.program,
		invariants: invs, gen: r.gens.Add(1)})
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

	ix := resolveIndex{
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
	r.index = ix
}

// Resolve returns the most specific entry whose selector matches the
// namespace and kind, or false if no registered policy governs the
// request (the enforcement point should fail closed). Lookup probes the
// registry-wide match trie — at most four map probes — so cost is flat
// in the number of registered workloads.
func (r *Registry) Resolve(namespace, kind string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.index.lookup(namespace, kind)
}

// ResolveRaw is Resolve for wire bytes (e.g. compile.RawMeta fields):
// the map probes convert the keys without allocating, so routing a
// request straight off its scanned metadata is allocation-free.
func (r *Registry) ResolveRaw(namespace, kind []byte) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ix := &r.index
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
	best := ix.cluster[string(kind)]
	best = preferEntry(best, ix.kindOnly[string(kind)])
	best = preferEntry(best, ix.wildcard)
	return best, best != nil
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

// Violations returns the denial records of every workload, newest last
// per workload, grouped by workload name.
func (r *Registry) Violations() map[string][]Record {
	r.mu.RLock()
	entries := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	out := make(map[string][]Record, len(entries))
	for _, e := range entries {
		if recs := e.Violations(); len(recs) > 0 {
			out[e.workload] = recs
		}
	}
	return out
}

// cacheKey identifies one validation decision within an entry's shard:
// the policy generation it was made under and the hash of the request
// body. A swap changes the generation, so stale decisions can never be
// served; the shard dies with its entry, so decisions can never leak
// across a Deregister/Register of the same workload name either.
type cacheKey struct {
	gen      uint64
	bodyHash [sha256.Size]byte
}

// newCacheKey keys a decision on body's hash: sum when the caller
// carries it, else taken here.
func newCacheKey(gen uint64, body []byte, sum *[sha256.Size]byte) cacheKey {
	if sum != nil {
		return cacheKey{gen: gen, bodyHash: *sum}
	}
	return cacheKey{gen: gen, bodyHash: sha256.Sum256(body)}
}

// ValidateRaw attempts to decide a request from its raw wire bytes,
// without decoding: the entry's decision-cache shard is consulted on the
// body hash first (operators re-apply identical manifests every
// reconcile loop, so the common case never even tokenizes), then the
// compiled program judges the bytes directly
// (compile.Program.JudgeRawScanned).
//
// decided=true returns the authoritative violation list: nil = allowed;
// cached denials come back verbatim, and an uncached one is the judging
// walk's diagnosis — Validate's list on the decoded body — cached under
// the same key. decided=false means the raw view could not rule — the
// caller must decode the body and call Validate, which produces the
// exact diagnostic violation list. Either way a request is counted
// once. Entries carrying cross-resource invariants skip the judging
// walk but still honor the cache short-circuit.
func (r *Registry) ValidateRaw(e *Entry, body []byte) (vs []validator.Violation, decided bool) {
	meta, ok := compile.ScanRawMeta(body)
	return r.validateRaw(e, body, nil, meta, ok, false)
}

// ValidateRawScanned is ValidateRaw for a caller that already ran
// compile.ScanRawMeta on this exact body (the proxy scans once for
// routing): the judging walk reuses the scan instead of re-tokenizing
// the body's prologue. meta MUST be the successful scan of body. The
// scan reads the prologue only, so the body may still not decode; the
// answers stay correct regardless — the judging walk reads every byte
// and decides nothing undecodable, a cached decision was made on a body
// that decoded, and a workload with no policy yet fails closed whatever
// the body is.
func (r *Registry) ValidateRawScanned(e *Entry, body []byte, meta compile.RawMeta) (vs []validator.Violation, decided bool) {
	return r.validateRaw(e, body, nil, meta, true, false)
}

// ValidateRawYAMLScanned is ValidateRawScanned for YAML wire bytes:
// meta MUST be the successful compile.ScanRawYAMLMeta of body, and the
// judging walk runs the YAML walker against the same compiled
// program. The cache short-circuit and all gating rules are shared with
// the JSON path.
func (r *Registry) ValidateRawYAMLScanned(e *Entry, body []byte, meta compile.RawMeta) (vs []validator.Violation, decided bool) {
	return r.validateRaw(e, body, nil, meta, true, true)
}

// ValidateRawHashed is ValidateRawScanned (ValidateRawYAMLScanned when
// yamlBody) for a caller that has also hashed the body: a non-nil sum
// MUST be the SHA-256 of body, and keys the decision cache in place of a
// hash taken here. The enforcement point's front end hashes every inspected body
// once, before it scans it.
func (r *Registry) ValidateRawHashed(e *Entry, body []byte, sum *[sha256.Size]byte, meta compile.RawMeta, yamlBody bool) (vs []validator.Violation, decided bool) {
	return r.validateRaw(e, body, sum, meta, true, yamlBody)
}

// validateRaw is every ValidateRaw form. A nil sum is taken here, and
// only when the entry has a cache to key with it.
func (r *Registry) validateRaw(e *Entry, body []byte, sum *[sha256.Size]byte, meta compile.RawMeta, scanOK, yamlBody bool) (vs []validator.Violation, decided bool) {
	ver := e.version.Load()
	if ver.program == nil && ver.policy == nil {
		e.requests.Add(1)
		return []validator.Violation{{Reason: fmt.Sprintf(
			"workload %s has no learned policy yet", e.workload)}}, true
	}
	var key cacheKey
	cached := e.cache != nil && len(body) > 0
	if cached {
		key = newCacheKey(ver.gen, body, sum)
		if vs, ok := e.cache.get(key); ok {
			e.requests.Add(1)
			e.cacheHits.Add(1)
			return vs, true
		}
	}
	// Entries carrying cross-resource invariants never decide on the raw
	// view: the judging walk rules on schema conformance only, and
	// an invariant needs the decoded object. The cache short-circuit
	// above is still sound — cached verdicts were computed by the decode
	// path WITH the invariants, under the same generation.
	if !scanOK || len(ver.invariants) > 0 {
		return nil, false
	}
	start := time.Now()
	vs, decided = ver.program.JudgeRawScanned(meta, body, yamlBody)
	if !decided {
		// Undecided: the caller's Validate call does the request
		// accounting (exactly one count per inspected request).
		return nil, false
	}
	e.requests.Add(1)
	e.valNanos.Add(int64(time.Since(start)))
	if cached {
		e.cache.put(key, vs)
	}
	return vs, true
}

// Validate checks a decoded object against an entry's policy, executing
// the compiled rule program and consulting the entry's decision-cache
// shard when a request body is supplied. The body must be
// the exact wire bytes the object was decoded from; callers without
// access to the raw body pass nil to validate uncached.
func (r *Registry) Validate(e *Entry, body []byte, obj object.Object) []validator.Violation {
	return r.ValidateHashed(e, body, nil, obj)
}

// ValidateHashed is Validate for a caller that has hashed the body: a
// non-nil sum MUST be the SHA-256 of body, and keys the decision cache
// in place of a hash taken here.
func (r *Registry) ValidateHashed(e *Entry, body []byte, sum *[sha256.Size]byte, obj object.Object) []validator.Violation {
	e.requests.Add(1)
	// One snapshot load: the generation keyed into the cache always
	// matches the engine state that (on a miss) computes the decision.
	return r.validateVersion(e, e.version.Load(), body, sum, obj)
}

// validateVersion validates against one loaded policy snapshot,
// consulting the entry's decision-cache shard. A snapshot with no policy
// (a learning entry whose candidate was never swapped in) fails closed.
func (r *Registry) validateVersion(e *Entry, ver *policyVersion, body []byte, sum *[sha256.Size]byte, obj object.Object) []validator.Violation {
	if ver.program == nil && ver.policy == nil {
		return []validator.Violation{{Reason: fmt.Sprintf(
			"workload %s has no learned policy yet", e.workload)}}
	}
	var key cacheKey
	cached := e.cache != nil && len(body) > 0
	if cached {
		key = newCacheKey(ver.gen, body, sum)
		if vs, ok := e.cache.get(key); ok {
			e.cacheHits.Add(1)
			return vs
		}
	}
	start := time.Now()
	vs := ver.program.Validate(obj)
	// Cross-resource invariants judge only schema-clean objects: a
	// schema violation already denies the request, and running the rules
	// on top would blur which layer caught it. Enforce and shadow
	// validation share this function, so their verdicts stay identical.
	if len(vs) == 0 {
		for _, inv := range ver.invariants {
			vs = append(vs, inv.Check(obj)...)
		}
	}
	e.valNanos.Add(int64(time.Since(start)))
	if cached {
		e.cache.put(key, vs)
	}
	return vs
}

// CacheEntry is one exported decision: the body hash it was keyed by
// and the violation list it answered with (nil = allowed).
type CacheEntry struct {
	BodyHash   [sha256.Size]byte
	Violations []validator.Violation
}

// CacheSnapshot is a transferable copy of one workload's decision-cache
// shard, taken by ExportCache for handoff to another registry (the
// plane moves a workload's hot set with it when a shard migrates
// between replicas). The snapshot is generation-checked twice: export
// keeps only decisions made under the source entry's current
// generation, and import re-keys them to the destination's current
// generation only while the destination provably serves the identical
// policy — otherwise every entry is dropped as stale. Entries are
// ordered least- to most-recently used so recency survives the move.
type CacheSnapshot struct {
	Workload string
	// Generation is the source entry's policy generation at export —
	// every entry in the snapshot was decided under it.
	Generation uint64
	Entries    []CacheEntry

	// policy pins the identity of the validator the decisions were
	// computed by. Generations are registry-local (each registry issues
	// its own), so cross-registry staleness cannot be judged by number:
	// ImportCache accepts the snapshot only while the destination's
	// current version holds this exact policy object. In-process handoff
	// only; a wire-format handoff needs a content hash here instead.
	policy *validator.Validator
	// hasInvariants records whether the source decided with
	// cross-resource invariants attached. Verdicts made with and without
	// invariants are not interchangeable, so import requires both sides
	// invariant-free.
	hasInvariants bool
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
		Workload:      workload,
		Generation:    ver.gen,
		policy:        ver.policy,
		hasInvariants: len(ver.invariants) > 0,
	}
	if e.cache != nil {
		snap.Entries = e.cache.export(ver.gen)
	}
	return snap, nil
}

// ImportCache merges an exported shard into the destination entry's
// cache, re-keyed to the destination's current generation, and reports
// how many decisions were imported. Stale snapshots import nothing: if
// the destination's current version does not hold the exact policy
// object the snapshot was exported under (a swap landed on either side
// since), or either side carries cross-resource invariants, every entry
// is dropped — an imported decision must be byte-for-byte the decision
// the destination would compute itself. Entries are replayed in LRU
// order through the shard's own bounded put, so the import can never
// grow the shard past its capacity.
func (r *Registry) ImportCache(snap CacheSnapshot) (int, error) {
	e, ok := r.Entry(snap.Workload)
	if !ok {
		return 0, errUnknown(snap.Workload)
	}
	if e.cache == nil {
		return 0, nil
	}
	// Serialized against Swap/SetInvariants via modeMu: the generation
	// read here cannot be superseded while the entries are keyed to it,
	// so an import can never resurrect decisions across a concurrent
	// policy change.
	e.modeMu.Lock()
	defer e.modeMu.Unlock()
	ver := e.version.Load()
	if ver.policy == nil || ver.policy != snap.policy ||
		snap.hasInvariants || len(ver.invariants) > 0 {
		return 0, nil
	}
	for _, ce := range snap.Entries {
		e.cache.put(cacheKey{gen: ver.gen, bodyHash: ce.BodyHash}, ce.Violations)
	}
	return len(snap.Entries), nil
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
