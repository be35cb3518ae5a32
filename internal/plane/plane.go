// Package plane is the distributed admission tier: one http.Handler
// front door fronting N proxy replicas, each with its own policy
// registry, decision cache, and backpressure bound.
//
// Sharding. Workloads are distributed across replicas by consistent
// hashing over the shard keys their selector can be addressed by: a
// namespaced selector is owned by the replica that owns "ns/<namespace>"
// (plus "kind/<k>" for every cluster-scoped kind it claims), while
// kind-only and wildcard selectors are broadcast to every replica —
// requests route by namespace first, so a selector that matches any
// namespace must be present wherever a request can land, or the tier
// would fail closed on traffic the policy actually covers. Explicit
// pins (RegisterPinned) override both the routing table and ownership
// for a namespace. Requests are routed by the same key function, so a
// request always lands on a replica whose local registry holds every
// selector that could match it — per-replica resolution then applies
// the registry's usual specificity rules unchanged.
//
// Policy distribution. Every control-plane call is serialized under one
// lock and is "mutate desired state, then reconcile": Register/Swap
// change a workload's policy, Drain/Kill/Restart flip a replica's state,
// Rebalance adopts a new shard assignment — and one primitive
// (reconcileLocked) makes replicas and routing match, in the only safe
// order: build the next route table; take each workload's owners from
// that table; bring every owner, and every live replica still HOLDING a
// copy from an earlier topology, to the target generation (holders are
// kept current rather than deregistered, so a request routed an instant
// before a shard moved still resolves to the same generation on the old
// replica); prime replicas that gained a workload from a live previous
// owner's decision cache; and only then publish the table. A request is
// therefore never routed to a replica that does not yet hold the current
// copy of every policy that can match it, and a replica that was down
// during a publish re-enters the ring only after a full resync
// (Restart). Replica-local installs reuse the registry's
// generation-pinned immutable snapshots, so each is atomic; while a
// multi-replica publish is in flight, different owners of a broadcast
// workload may briefly serve different generations. That
// mixed-generation window is bounded by the reconcile completing and
// observable via TierMetrics.PublishesStarted vs PublishesCompleted,
// for policy publishes, topology changes and shard moves alike.
//
// Fail-closed shedding. Per-replica backpressure (MaxInFlight +
// QueueTimeout) sheds overload with 429 and routes to dead replicas
// with 503 — a shed request is always an explicit denial-shaped
// response, never a silent allow.
package plane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/validator"
)

// defaultVirtualNodes is the per-replica virtual-node count when
// Config.VirtualNodes is zero: enough to spread a drained replica's
// keys roughly evenly across survivors at small replica counts.
const defaultVirtualNodes = 64

// ReplicaState is a replica's lifecycle state.
type ReplicaState int32

const (
	// ReplicaActive serves routed requests and owns ring shards.
	ReplicaActive ReplicaState = iota
	// ReplicaDraining serves already-routed requests but owns no ring
	// shards; its workloads have been re-assigned.
	ReplicaDraining
	// ReplicaDown sheds every request (503) until Restart resyncs it.
	ReplicaDown
)

// String names the state for metrics and logs.
func (s ReplicaState) String() string {
	switch s {
	case ReplicaActive:
		return "active"
	case ReplicaDraining:
		return "draining"
	case ReplicaDown:
		return "down"
	default:
		return fmt.Sprintf("ReplicaState(%d)", int32(s))
	}
}

// Config configures the admission tier.
type Config struct {
	// Replicas is the number of proxy replicas (required, >= 1).
	Replicas int
	// Upstream is the API server base URL shared by every replica.
	Upstream string
	// Transport carries requests upstream. Defaults to
	// http.DefaultTransport.
	Transport http.RoundTripper
	// CacheSize bounds each replica registry's per-workload decision
	// cache. Zero disables caching.
	CacheSize int
	// MaxInFlight bounds the requests concurrently admitted into one
	// replica; excess requests wait up to QueueTimeout for a slot and
	// are then shed with 429. Zero means unbounded.
	MaxInFlight int
	// QueueTimeout is how long a request may wait for a replica slot
	// before being shed. Zero sheds immediately when the replica is
	// saturated.
	QueueTimeout time.Duration
	// VirtualNodes is the consistent-hash virtual-node count per
	// replica (default 64).
	VirtualNodes int
	// ProxyUser is forwarded to every replica proxy (header-auth
	// identity asserted upstream).
	ProxyUser string
	// DisableRawFastPath forces every replica through the decode-first
	// path (ablation/debugging).
	DisableRawFastPath bool
	// Telemetry, when non-nil, equips every replica proxy with its own
	// telemetry hub plus a front-door hub for routing outcomes
	// (routed/shed/unavailable). Hubs are created once and survive
	// Restart, so counters span replica generations; Plane.Telemetry()
	// merges them into one tier snapshot.
	Telemetry *telemetry.Config
	// Placement selects the shard placement policy: PlacementHash (the
	// default) places shard keys by consistent hashing alone;
	// PlacementWeighted overlays load-aware assignment — Rebalance
	// migrates the heaviest keys (and their hot decision caches) off
	// overloaded replicas.
	Placement PlacementPolicy
	// RebalanceThreshold is the weighted placement's hysteresis band: a
	// rebalance only moves shards while the most loaded replica exceeds
	// the mean load by this fraction (default 0.2).
	RebalanceThreshold float64
	// RebalanceInterval, when > 0 on a weighted-placement tier, runs
	// Rebalance on a background ticker until Close.
	RebalanceInterval time.Duration
	// LoadSmoothing is the EWMA coefficient for per-workload load
	// scores (0 < alpha <= 1, default 0.5); higher weights the latest
	// epoch more.
	LoadSmoothing float64
}

// workloadState is the control plane's desired state for one workload —
// the source of truth replicas are resynced from after a restart.
type workloadState struct {
	selector  registry.Selector
	validator *validator.Validator
	mode      registry.Mode
	observer  registry.Observer
	// gen is the plane generation of the last completed publish; Promote
	// pins against it exactly like registry.Promote pins entry
	// generations.
	gen uint64
	// pin, when >= 0, forces ownership (and routing of the selector's
	// shard keys) to one replica.
	pin int
	// owners are the replica indices the workload is currently
	// published to.
	owners []int
}

// replica is one proxy instance plus its tier bookkeeping.
type replica struct {
	index int
	state atomic.Int32

	// proxy is read by the data path and replaced wholesale on Restart
	// (a restarted replica is a fresh process: new registry, new proxy).
	proxy atomic.Pointer[proxy.Proxy]
	// reg is the control plane's handle to the replica's registry; only
	// touched under Plane.mu.
	reg *registry.Registry
	// installed maps workload -> plane generation last published to
	// this replica. Control-plane bookkeeping, under Plane.mu.
	installed map[string]uint64

	// inflight is the backpressure semaphore (nil when unbounded).
	inflight chan struct{}

	// hub is the replica's telemetry recorder (nil when the tier runs
	// without telemetry). Created once; survives Restart so decision
	// counters span replica generations.
	hub *telemetry.Hub

	routed      atomic.Uint64
	shed        atomic.Uint64
	unavailable atomic.Uint64
}

// routeTable is the immutable routing snapshot the data path reads —
// rebuilt and atomically published by every reconcile so requests never
// take the control-plane lock.
type routeTable struct {
	ring *ring
	pins map[string]int
	// assign is the weighted placement overlay: shard keys explicitly
	// homed by the last rebalance. Resolution order is pins, then
	// assign, then the ring.
	assign map[string]int
}

// owner resolves a shard key to its replica: explicit pin first, then
// the weighted assignment, then consistent hashing. ok is false only
// when the ring is empty (every replica drained or down).
func (rt *routeTable) owner(key string) (int, bool) {
	if idx, ok := rt.pins[key]; ok {
		return idx, true
	}
	if idx, ok := rt.assign[key]; ok {
		return idx, true
	}
	return rt.ring.lookup(key)
}

// Plane is the distributed admission tier.
type Plane struct {
	cfg      Config
	replicas []*replica
	routes   atomic.Pointer[routeTable]

	// mu serializes every control-plane operation: registration, policy
	// publishes, mode transitions, and replica lifecycle. Publishes are
	// therefore linearizable — two Swaps can never interleave their
	// per-replica installs.
	mu        sync.Mutex
	workloads map[string]*workloadState
	pins      map[string]int
	gens      atomic.Uint64

	// assign and loads are the weighted placer's state: the committed
	// shard-key assignment (shared with the published route table, so
	// replaced wholesale, never written in place) and the per-workload
	// EWMA bookkeeping. Both under mu.
	assign map[string]int
	loads  map[string]loadState

	// stepHook, when a test sets it, is called at every step of
	// reconcileLocked with pl.mu held: it may drive the data path (which
	// takes no control-plane lock) but make no control-plane call.
	stepHook func(step string)

	requests           atomic.Uint64
	shedTotal          atomic.Uint64
	unavailableTotal   atomic.Uint64
	publishesStarted   atomic.Uint64
	publishesCompleted atomic.Uint64
	resyncs            atomic.Uint64
	rebalances         atomic.Uint64
	migrations         atomic.Uint64
	handoffTotal       atomic.Uint64

	// rebalanceStop ends the periodic rebalancer (nil unless
	// Config.RebalanceInterval started one).
	rebalanceStop chan struct{}
	closeOnce     sync.Once

	// front records routing outcomes at the front door (nil when the
	// tier runs without telemetry).
	front *telemetry.Hub
}

// New builds the tier: Replicas proxy replicas, each with its own
// registry, all initially active and empty.
func New(cfg Config) (*Plane, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("plane: Config.Replicas must be >= 1 (got %d)", cfg.Replicas)
	}
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("plane: Config.Upstream is required")
	}
	switch cfg.Placement {
	case "", PlacementHash, PlacementWeighted:
	default:
		return nil, fmt.Errorf("plane: unknown placement policy %q", cfg.Placement)
	}
	pl := &Plane{
		cfg:       cfg,
		workloads: map[string]*workloadState{},
		pins:      map[string]int{},
		assign:    map[string]int{},
		loads:     map[string]loadState{},
	}
	if cfg.Telemetry != nil {
		pl.front = telemetry.New(*cfg.Telemetry)
	}
	for i := 0; i < cfg.Replicas; i++ {
		rep := &replica{index: i, installed: map[string]uint64{}}
		if cfg.MaxInFlight > 0 {
			rep.inflight = make(chan struct{}, cfg.MaxInFlight)
		}
		if cfg.Telemetry != nil {
			rep.hub = telemetry.New(*cfg.Telemetry)
		}
		if err := pl.bootReplica(rep); err != nil {
			return nil, err
		}
		pl.replicas = append(pl.replicas, rep)
	}
	pl.routes.Store(pl.nextRoutesLocked())
	if pl.placement() == PlacementWeighted && cfg.RebalanceInterval > 0 {
		pl.rebalanceStop = make(chan struct{})
		go pl.rebalanceLoop(cfg.RebalanceInterval)
	}
	return pl, nil
}

// bootReplica gives rep a fresh registry and proxy (initial boot and
// Restart both go through here — a restarted replica is a new process).
func (pl *Plane) bootReplica(rep *replica) error {
	reg := registry.New(registry.Config{CacheSize: pl.cfg.CacheSize})
	px, err := proxy.New(proxy.Config{
		Upstream:           pl.cfg.Upstream,
		Transport:          pl.cfg.Transport,
		Registry:           reg,
		ProxyUser:          pl.cfg.ProxyUser,
		DisableRawFastPath: pl.cfg.DisableRawFastPath,
		Telemetry:          rep.hub,
	})
	if err != nil {
		return err
	}
	rep.reg = reg
	rep.proxy.Store(px)
	rep.installed = map[string]uint64{}
	return nil
}

// activeIndices lists replicas eligible to own ring shards.
func (pl *Plane) activeIndices() []int {
	var out []int
	for _, rep := range pl.replicas {
		if ReplicaState(rep.state.Load()) == ReplicaActive {
			out = append(out, rep.index)
		}
	}
	return out
}

// activeOnly copies the entries of a placement map whose replica is
// active. Pins and weighted assignments only bind while their replica
// is active; otherwise the shard falls back to hashed placement, so a
// pinned or weighted-placed workload keeps receiving (correctly
// re-homed) traffic while its replica is out.
func (pl *Plane) activeOnly(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		if ReplicaState(pl.replicas[v].state.Load()) == ReplicaActive {
			out[k] = v
		}
	}
	return out
}

// nextRoutesLocked builds the routing snapshot for the current replica
// states, pins, and weighted assignments. The ring is a function of the
// active set alone, so the published one is reused until that set
// changes — a publish that changes no topology (Register, Swap, a shard
// move) never rebuilds it. Weighted assignments whose replica left the
// active set are dropped for good (hashed placement until the next
// weighted rebalance re-places them by load), which makes the committed
// assignment and the table's one map: replaced here, never written in
// place. Caller holds pl.mu (or is inside New).
func (pl *Plane) nextRoutesLocked() *routeTable {
	active := pl.activeIndices()
	var rg *ring
	if prev := pl.routes.Load(); prev != nil && slices.Equal(prev.ring.members, active) {
		rg = prev.ring
	} else {
		rg = buildRing(active, pl.cfg.VirtualNodes)
	}
	pl.assign = pl.activeOnly(pl.assign)
	return &routeTable{ring: rg, pins: pl.activeOnly(pl.pins), assign: pl.assign}
}

// Shard keys. Requests and selectors are addressed by the same key
// space so routing and ownership can never disagree: namespaced traffic
// by "ns/<namespace>", cluster-scoped traffic by "kind/<kind>", and
// requests with neither by a deterministic path fallback (any replica
// will serve or fail closed on them identically).
func nsKey(namespace string) string { return "ns/" + namespace }
func kindKey(kind string) string    { return "kind/" + kind }

// shardKeys lists the keys a selector is addressed by. Empty means the
// selector is not shardable (matches any namespace) and must be
// broadcast to every replica.
func shardKeys(sel registry.Selector) []string {
	if sel.Namespace == "" {
		return nil
	}
	keys := []string{nsKey(sel.Namespace)}
	for _, k := range sel.ClusterKinds {
		keys = append(keys, kindKey(k))
	}
	return keys
}

// owners lists the replicas a workload must be published to under this
// table: the owner of each of its shard keys — resolved exactly as the
// data path resolves a request's — or every active replica for a
// broadcast selector.
func (rt *routeTable) owners(ws *workloadState) []int {
	keys := shardKeys(ws.selector)
	if keys == nil {
		return rt.ring.members
	}
	var owners []int
	for _, key := range keys {
		if idx, ok := rt.owner(key); ok && !containsInt(owners, idx) {
			owners = append(owners, idx)
		}
	}
	return owners
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// lookupLocked finds a workload's desired state, or the registry's
// typed sentinel for one the tier has never seen. Caller holds pl.mu.
func (pl *Plane) lookupLocked(workload string) (*workloadState, error) {
	ws, ok := pl.workloads[workload]
	if !ok {
		return nil, fmt.Errorf("%w: %s is not registered with the plane", registry.ErrUnknownWorkload, workload)
	}
	return ws, nil
}

// replicaAt bounds-checks a replica index.
func (pl *Plane) replicaAt(replicaIndex int) (*replica, error) {
	if replicaIndex < 0 || replicaIndex >= len(pl.replicas) {
		return nil, fmt.Errorf("plane: no replica %d", replicaIndex)
	}
	return pl.replicas[replicaIndex], nil
}

// Register adds a workload policy to the tier and publishes it to its
// owning replicas. The selector semantics are the registry's; a
// wildcard or kind-only selector is broadcast to every replica.
func (pl *Plane) Register(workload string, sel registry.Selector, v *validator.Validator) error {
	return pl.register(workload, sel, v, -1)
}

// RegisterPinned is Register with an explicit placement override: the
// workload (and the routing of its namespace and claimed cluster
// kinds) is pinned to one replica instead of consistent hashing.
// Pinning requires a namespaced selector — a selector that matches any
// namespace has no shard key to pin.
func (pl *Plane) RegisterPinned(workload string, sel registry.Selector, v *validator.Validator, replicaIndex int) error {
	if sel.Namespace == "" {
		return fmt.Errorf("plane: workload %s: pinning requires a namespaced selector", workload)
	}
	return pl.register(workload, sel, v, replicaIndex)
}

// checkPolicy compiles a policy before any replica is touched: one
// that does not compile must leave the whole tier untouched.
func checkPolicy(workload string, v *validator.Validator) error {
	if v == nil {
		return fmt.Errorf("plane: validator is required for workload %s", workload)
	}
	if _, err := compile.Compile(v); err != nil {
		return fmt.Errorf("plane: workload %s: %w", workload, err)
	}
	return nil
}

func (pl *Plane) register(workload string, sel registry.Selector, v *validator.Validator, pin int) error {
	if err := checkPolicy(workload, v); err != nil {
		return err
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.addLocked(workload, &workloadState{selector: sel, validator: v, mode: registry.ModeEnforce, pin: pin})
}

// RegisterLearning adds a workload with no policy in ModeLearn: its
// traffic is forwarded and fed to the observer on every owning replica.
func (pl *Plane) RegisterLearning(workload string, sel registry.Selector, obs registry.Observer) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.addLocked(workload, &workloadState{selector: sel, mode: registry.ModeLearn, observer: obs, pin: -1})
}

// addLocked admits a new workload into desired state and publishes it.
// The preconditions are checked against the whole tier before anything
// changes; a first publish that still fails is rolled back, so a failed
// registration leaves no trace and a corrected retry succeeds. Caller
// holds pl.mu.
func (pl *Plane) addLocked(workload string, ws *workloadState) error {
	if _, dup := pl.workloads[workload]; dup {
		return fmt.Errorf("plane: workload %s is already registered", workload)
	}
	if ws.pin >= len(pl.replicas) {
		return fmt.Errorf("plane: workload %s: no replica %d (tier has %d)", workload, ws.pin, len(pl.replicas))
	}
	// Cluster-scoped claims must be tier-unique for the same reason they
	// are registry-unique: no namespace disambiguates tenants. Checked
	// here because two workloads on different replicas would never meet
	// inside one registry.
	for _, kind := range ws.selector.ClusterKinds {
		for w, other := range pl.workloads {
			if slices.Contains(other.selector.ClusterKinds, kind) {
				return fmt.Errorf("plane: cluster-scoped kind %s already claimed by workload %s", kind, w)
			}
		}
	}
	if ws.pin >= 0 {
		for _, key := range shardKeys(ws.selector) {
			if other, ok := pl.pins[key]; ok && other != ws.pin {
				return fmt.Errorf("plane: shard %s already pinned to replica %d", key, other)
			}
		}
		for _, key := range shardKeys(ws.selector) {
			pl.pins[key] = ws.pin
		}
	}
	pl.workloads[workload] = ws
	if _, err := pl.reconcileLocked(map[string]*workloadState{workload: ws}, true); err != nil {
		pl.removeLocked(workload, ws)
		return err
	}
	return nil
}

// removeLocked takes a workload out of desired state, its pins, and
// every replica it reached. Releasing a pin re-homes the shard, so the
// tier is reconciled: whatever else the shard addresses is installed on
// its new owner before the routing follows. Caller holds pl.mu.
func (pl *Plane) removeLocked(workload string, ws *workloadState) {
	for _, rep := range pl.replicas {
		if _, had := rep.installed[workload]; had {
			rep.reg.Deregister(workload)
			delete(rep.installed, workload)
		}
	}
	delete(pl.workloads, workload)
	if ws.pin >= 0 {
		for _, key := range shardKeys(ws.selector) {
			delete(pl.pins, key)
		}
		// Deregister has no error to return; a replica the re-homing
		// could not reach is retried by the next reconcile.
		_, _ = pl.reconcileLocked(pl.workloads, false)
	}
}

// Swap atomically replaces a workload's policy tier-wide: compiled
// once up front, then published to every owning replica under the
// control-plane lock. Each replica's local swap is an atomic snapshot
// publish; when Swap returns, every owner serves the new generation.
// Returns registry.ErrUnknownWorkload for a workload the tier has
// never seen.
func (pl *Plane) Swap(workload string, v *validator.Validator) error {
	if err := checkPolicy(workload, v); err != nil {
		return err
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, err := pl.lookupLocked(workload)
	if err != nil {
		return err
	}
	ws.validator = v
	_, err = pl.reconcileLocked(map[string]*workloadState{workload: ws}, true)
	return err
}

// reconcileLocked is the one publish primitive (see the package
// comment for the order and why it is the safe one): it makes the
// replicas and the routing match the desired state of the workloads in
// scope — the one a Register or Swap changed, or pl.workloads for
// topology changes and shard moves, which can re-home any workload —
// inside one PublishesStarted/PublishesCompleted window. The target generation is a fresh one when bumpGeneration
// (Register, Swap) and the workload's published one otherwise:
// topology changes and shard moves re-place policy, they do not change
// it. Replicas already at the target generation are skipped, so an
// unchanged shard costs nothing; a down replica takes no publishes
// (Restart resyncs it before it serves again); a killed previous owner
// has no cache left to hand off. Returns the number of cached decisions
// each workload's new owners were primed with. Caller holds pl.mu.
func (pl *Plane) reconcileLocked(scope map[string]*workloadState, bumpGeneration bool) (primed map[string]int, firstErr error) {
	pl.publishesStarted.Add(1)
	defer pl.publishesCompleted.Add(1)
	next := pl.nextRoutesLocked()
	for w, ws := range scope {
		gen := ws.gen
		if bumpGeneration {
			gen = pl.gens.Add(1)
		}
		owners, prev, failed := next.owners(ws), ws.owners, false
		for _, rep := range pl.replicas {
			if ReplicaState(rep.state.Load()) == ReplicaDown {
				continue
			}
			have, holds := rep.installed[w]
			if holds && have == gen || !holds && !containsInt(owners, rep.index) {
				continue
			}
			if err := pl.installLocked(rep, w, ws, gen); err != nil {
				failed = true
				if firstErr == nil {
					firstErr = fmt.Errorf("plane: replica %d: %w", rep.index, err)
				}
			}
			pl.at("install")
		}
		if failed {
			continue
		}
		ws.gen, ws.owners = gen, owners
		for _, idx := range owners {
			if containsInt(prev, idx) {
				continue
			}
			for _, old := range prev {
				if n := pl.handoffLocked(old, pl.replicas[idx], w, ws); n > 0 {
					if primed == nil {
						primed = map[string]int{}
					}
					primed[w] += n
					pl.handoffTotal.Add(uint64(n))
					pl.at("handoff")
					break
				}
			}
		}
	}
	pl.at("before-route-flip")
	pl.routes.Store(next)
	pl.at("after-route-flip")
	return primed, firstErr
}

// at reports a step of the publish primitive to the test hook.
func (pl *Plane) at(step string) {
	if pl.stepHook != nil {
		pl.stepHook(step)
	}
}

// installLocked makes one replica's registry match the desired state of
// one workload. The registry's typed sentinels drive the reconcile: an
// ErrUnknownWorkload from Swap means the replica lost the entry
// (restarted process) and the install falls back to Register; any other
// error is reported to the caller. Caller holds pl.mu.
func (pl *Plane) installLocked(rep *replica, workload string, ws *workloadState, gen uint64) error {
	_, had := rep.installed[workload]
	var err error
	if had && ws.validator != nil {
		if err = rep.reg.Swap(workload, ws.validator); errors.Is(err, registry.ErrUnknownWorkload) {
			had = false
		}
	}
	if !had {
		if ws.validator == nil {
			// Learn-mode workload: no policy to swap, just ensure presence.
			_, err = rep.reg.RegisterLearning(workload, ws.selector, ws.observer)
		} else {
			_, err = rep.reg.Register(workload, ws.selector, ws.validator)
		}
	}
	if err == nil {
		err = rep.reg.SetMode(workload, ws.mode)
	}
	if err == nil && ws.observer != nil {
		err = rep.reg.SetObserver(workload, ws.observer)
	}
	if err == nil {
		rep.installed[workload] = gen
	}
	return err
}

// SetMode sets a workload's enforcement mode on every owning replica —
// the operator override, mirroring Registry.SetMode.
func (pl *Plane) SetMode(workload string, m registry.Mode) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, err := pl.lookupLocked(workload)
	if err != nil {
		return err
	}
	ws.mode = m
	var firstErr error
	for _, rep := range pl.holders(workload) {
		if err := rep.reg.SetMode(workload, m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// holders lists the live replicas that hold a copy of a workload — the
// set mode transitions and promotions must reach (a superset of the
// routing owners; see reconcileLocked). Caller holds pl.mu.
func (pl *Plane) holders(workload string) []*replica {
	var out []*replica
	for _, rep := range pl.replicas {
		if ReplicaState(rep.state.Load()) == ReplicaDown {
			continue
		}
		if _, holds := rep.installed[workload]; holds {
			out = append(out, rep)
		}
	}
	return out
}

// Promote switches a shadowing workload to enforce tier-wide, pinned to
// the plane generation the caller's shadow gate evaluated — the
// distributed analogue of Registry.Promote. The sentinel contract is
// the registry's: ErrUnknownWorkload and ErrNotShadowing are permanent,
// ErrStaleGeneration means a Swap won the race and the caller should
// re-gate against the new generation.
func (pl *Plane) Promote(workload string, gen uint64) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, err := pl.lookupLocked(workload)
	if err != nil {
		return err
	}
	if ws.mode != registry.ModeShadow {
		return fmt.Errorf("%w (workload %s: mode %s)", registry.ErrNotShadowing, workload, ws.mode)
	}
	if ws.gen != gen {
		return fmt.Errorf("%w (workload %s: gated plane generation %d, current %d)",
			registry.ErrStaleGeneration, workload, gen, ws.gen)
	}
	// Holders promote against their own local entry generation: the
	// control-plane lock serializes this against every Swap, so the
	// local generation observed here is exactly the one the plane
	// generation above published.
	for _, rep := range pl.holders(workload) {
		e, ok := rep.reg.Entry(workload)
		if !ok {
			continue
		}
		if err := rep.reg.Promote(workload, e.Generation()); err != nil {
			return fmt.Errorf("plane: replica %d: %w", rep.index, err)
		}
	}
	ws.mode = registry.ModeEnforce
	return nil
}

// Demote drops an enforcing workload back to shadow tier-wide.
func (pl *Plane) Demote(workload string) error {
	return pl.SetMode(workload, registry.ModeShadow)
}

// Deregister removes a workload from the tier and every replica. It
// reports whether the workload was registered.
func (pl *Plane) Deregister(workload string) bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, ok := pl.workloads[workload]
	if ok {
		pl.removeLocked(workload, ws)
	}
	return ok
}

// Generation reports the plane generation of a workload's last
// completed publish — the value Promote pins against.
func (pl *Plane) Generation(workload string) (uint64, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, err := pl.lookupLocked(workload)
	if err != nil {
		return 0, err
	}
	return ws.gen, nil
}

// Mode reports a workload's tier-wide enforcement mode.
func (pl *Plane) Mode(workload string) (registry.Mode, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, err := pl.lookupLocked(workload)
	if err != nil {
		return 0, err
	}
	return ws.mode, nil
}

// Owners reports the replica indices currently serving a workload.
func (pl *Plane) Owners(workload string) ([]int, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, err := pl.lookupLocked(workload)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), ws.owners...), nil
}

// Workloads lists the tier's registered workloads, sorted.
func (pl *Plane) Workloads() []string {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]string, 0, len(pl.workloads))
	for w := range pl.workloads {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Replicas reports the configured replica count.
func (pl *Plane) Replicas() int { return len(pl.replicas) }

// State reports one replica's lifecycle state.
func (pl *Plane) State(replicaIndex int) (ReplicaState, error) {
	rep, err := pl.replicaAt(replicaIndex)
	if err != nil {
		return 0, err
	}
	return ReplicaState(rep.state.Load()), nil
}

// transition applies a lifecycle change to one replica and reconciles
// the whole tier with the new topology.
func (pl *Plane) transition(replicaIndex int, apply func(*replica) error) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	rep, err := pl.replicaAt(replicaIndex)
	if err == nil {
		err = apply(rep)
	}
	if err == nil {
		_, err = pl.reconcileLocked(pl.workloads, false)
	}
	return err
}

// Drain gracefully removes a replica from the ring: its shards are
// deterministically re-assigned (the new owners are installed before
// the routing flips), and requests routed just before the flip keep
// resolving against its retained — and still swap-updated — copies.
func (pl *Plane) Drain(replicaIndex int) error {
	return pl.transition(replicaIndex, func(rep *replica) error {
		rep.state.Store(int32(ReplicaDraining))
		return nil
	})
}

// Kill marks a replica dead — the abrupt path (crash, health-check
// failure). Requests already routed to it shed with 503; its shards are
// re-assigned to the survivors; its in-memory policy state is
// considered lost (a restart resyncs from the control plane's desired
// state, it does not trust the corpse).
func (pl *Plane) Kill(replicaIndex int) error {
	return pl.transition(replicaIndex, func(rep *replica) error {
		rep.state.Store(int32(ReplicaDown))
		rep.installed = map[string]uint64{}
		return nil
	})
}

// Restart brings a drained or dead replica back: it boots a FRESH
// registry and proxy (a restarted process remembers nothing) and
// resyncs from the control plane's desired state before the route
// table includes it — a rejoining replica can never serve a request
// before it holds the current generation of every policy it owns. The
// old route table keeps routing around the replica until the resync
// completes; a replica restarted while still active is taken out of the
// routing first (Kill), or that table would route to its empty registry.
func (pl *Plane) Restart(replicaIndex int) error {
	if st, err := pl.State(replicaIndex); err == nil && st == ReplicaActive {
		if err := pl.Kill(replicaIndex); err != nil {
			return err
		}
	}
	return pl.transition(replicaIndex, func(rep *replica) error {
		// Kill semantics (shed everything) hold while the process is
		// replaced; the reconcile repopulates the fresh registry.
		rep.state.Store(int32(ReplicaDown))
		if err := pl.bootReplica(rep); err != nil {
			return err
		}
		pl.resyncs.Add(1)
		rep.state.Store(int32(ReplicaActive))
		return nil
	})
}

// --- data path ---------------------------------------------------------

// ServeHTTP is the tier's front door: build the request's front end
// (the one read, scan and decode fallback it will ever get), derive the
// shard key from it, pick the owning replica, apply its backpressure
// bound, and hand the same value to that replica's proxy. Every failure
// mode is an explicit denial-shaped response — saturated replica 429,
// dead or missing replica 503, and the replica proxy's own fail-closed
// outcomes (unreadable body 400, oversized 413, unsupported type 415) —
// never a silent allow.
func (pl *Plane) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Observability endpoints ride the front door so replica state is
	// visible without linking the Go API; they are answered before the
	// request counter and body read (a scrape is not admission traffic).
	if r.Method == http.MethodGet {
		switch r.URL.Path {
		case "/healthz":
			pl.serveHealthz(w)
			return
		case "/varz":
			pl.serveVarz(w)
			return
		}
	}
	pl.requests.Add(1)
	var start time.Time
	if pl.front != nil {
		start = time.Now()
	}

	q := proxy.ReadRequest(r)
	// A no-op once a replica's proxy has consumed the request; returns
	// the body buffer on every path that sheds instead.
	defer q.Release()

	idx, ok := pl.routes.Load().owner(shardKey(&q, r.URL.Path))
	if !ok {
		pl.unavailable(w, nil, start, "no active admission replica for this request")
		return
	}
	rep := pl.replicas[idx]
	if ReplicaState(rep.state.Load()) == ReplicaDown {
		pl.unavailable(w, rep, start, fmt.Sprintf("admission replica %d is down", idx))
		return
	}
	if rep.inflight != nil {
		if !rep.acquire(pl.cfg.QueueTimeout) {
			rep.shed.Add(1)
			pl.shedTotal.Add(1)
			pl.recordFront(telemetry.VerdictShed, start)
			pl.writeStatus(w, http.StatusTooManyRequests, "KubeFenceTierOverloaded",
				fmt.Sprintf("admission replica %d is saturated", idx))
			return
		}
		defer rep.release()
	}
	rep.routed.Add(1)
	// The front-door record covers routing overhead only (read, scan,
	// route); the replica's own hub times the admission decision itself.
	pl.recordFront(telemetry.VerdictRouted, start)
	rep.proxy.Load().Serve(w, r, &q)
}

// unavailable sheds a request no live replica can take (503), charged
// to the replica it was routed to when there is one.
func (pl *Plane) unavailable(w http.ResponseWriter, rep *replica, start time.Time, message string) {
	if rep != nil {
		rep.unavailable.Add(1)
	}
	pl.unavailableTotal.Add(1)
	pl.recordFront(telemetry.VerdictUnavailable, start)
	pl.writeStatus(w, http.StatusServiceUnavailable, "KubeFenceReplicaUnavailable", message)
}

// FrontDoorWorkload is the telemetry workload label the front door
// records its routing outcomes under.
const FrontDoorWorkload = "_frontdoor"

// recordFront records one routing outcome on the front-door hub; a
// no-op when the tier runs without telemetry.
func (pl *Plane) recordFront(v telemetry.Verdict, start time.Time) {
	if pl.front != nil {
		pl.front.RecordDecision(FrontDoorWorkload, v, telemetry.PathRaw, time.Since(start))
	}
}

// serveHealthz reports liveness as seen by the router: 200 while at
// least one replica is active (the tier can admit), 503 otherwise —
// with the per-state replica counts either way, so a drained or killed
// replica is visible to a probe without the Go API.
func (pl *Plane) serveHealthz(w http.ResponseWriter) {
	counts := map[string]int{}
	for _, rep := range pl.replicas {
		counts[ReplicaState(rep.state.Load()).String()]++
	}
	code := http.StatusOK
	status := "ok"
	if counts["active"] == 0 {
		code = http.StatusServiceUnavailable
		status = "no active replicas"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(map[string]any{"status": status, "replicas": counts})
}

// serveVarz serves the full tier rollup as JSON: TierMetrics (replica
// states, front-door accounting, summed proxy counters), the merged
// telemetry snapshot, and the sampled traces when telemetry is on.
func (pl *Plane) serveVarz(w http.ResponseWriter) {
	out := map[string]any{"tier": pl.Metrics()}
	if pl.front != nil {
		out["telemetry"] = pl.Telemetry()
		out["traces"] = pl.Traces()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// acquire takes a backpressure slot, waiting up to timeout.
func (rep *replica) acquire(timeout time.Duration) bool {
	select {
	case rep.inflight <- struct{}{}:
		return true
	default:
	}
	if timeout <= 0 {
		return false
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case rep.inflight <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

func (rep *replica) release() { <-rep.inflight }

// shardKey derives the shard key of a request from the (namespace, kind)
// its front end reports — the very pair the owning replica's proxy will
// resolve policy on, so routing and resolution cannot disagree: the
// namespace (the body's own, then the URL path's) when there is one,
// then the body kind for cluster-scoped objects. Requests with neither
// (reads outside a namespace, bodies nothing can decode) get a
// deterministic path key; every replica serves or fails closed on those
// identically, the key only needs to be stable.
func shardKey(q *proxy.Request, path string) string {
	namespace, kind := q.Target()
	switch {
	case namespace != "":
		return nsKey(namespace)
	case kind != "":
		return kindKey(kind)
	}
	return "path/" + path
}

// writeStatus writes a Kubernetes Status-shaped failure so shed
// responses are machine-distinguishable from policy denials (which the
// replicas emit themselves with reason KubeFencePolicyViolation).
func (pl *Plane) writeStatus(w http.ResponseWriter, code int, reason, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, `{"kind":"Status","apiVersion":"v1","status":"Failure","message":%q,"reason":%q,"code":%d}`+"\n",
		message, reason, code)
}
