// Package kubefence is the public API of the KubeFence reproduction: it
// hardens the Kubernetes attack surface by generating fine-grained,
// workload-specific API security policies from the Helm charts of
// Kubernetes Operators, and enforcing them at runtime in front of the API
// server (Cesarano & Natella, "KubeFence: Security Hardening of the
// Kubernetes Attack Surface", DSN 2025).
//
// The typical flow:
//
//	c, _ := kubefence.LoadChart(files)           // or LoadBuiltinChart("nginx")
//	policy, _ := kubefence.GeneratePolicy(c, kubefence.Options{})
//	violations, _ := policy.ValidateManifest(requestBody)
//	if len(violations) > 0 { /* deny */ }
//
// For runtime enforcement, register the policy in a Registry (a zero
// Selector scopes it to every request) and hand the registry to NewProxy,
// which returns an http.Handler that intercepts API traffic, validates
// request bodies against the governing policy, and forwards conforming
// requests upstream — the paper's proxy-based enforcement (§V-B).
// Complete mediation (clients cannot bypass the proxy) is obtained by
// fronting the API server with mutual TLS; see internal/certs and the
// operator-lifecycle example.
package kubefence

import (
	"fmt"
	"net/http"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/object"
	"repro/internal/plane"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/validator"
)

// Chart is a loaded Helm chart (templates, default values, metadata).
type Chart = chart.Chart

// ReleaseOptions identify a Helm release when rendering.
type ReleaseOptions = chart.ReleaseOptions

// Violation describes one reason a request violates a policy.
type Violation = validator.Violation

// LockMode controls how security-locked fields treat absence.
type LockMode = validator.LockMode

// Lock-mode values.
const (
	// LockIfPresent allows omitting a locked field but denies unsafe
	// values when present (default).
	LockIfPresent = validator.LockIfPresent
	// LockRequired additionally denies requests omitting a locked field.
	LockRequired = validator.LockRequired
)

// Options configure policy generation.
type Options struct {
	// Workload names the policy; defaults to the chart name.
	Workload string
	// Mode selects lock enforcement (default LockIfPresent).
	Mode LockMode
	// DisableSecurityLocks turns off best-practice locking (not
	// recommended; exists for the ablation study).
	DisableSecurityLocks bool
}

// Policy is a generated KubeFence security policy for one workload.
type Policy struct {
	// Workload names the operator the policy was generated for.
	Workload string
	// Variants is the number of values variants explored.
	Variants int
	// Manifests is the number of rendered manifests consolidated.
	Manifests int

	validator *validator.Validator
}

// LoadChart loads a Helm chart from a path→content fileset with entries
// "Chart.yaml", "values.yaml", and "templates/...".
func LoadChart(files map[string]string) (*Chart, error) {
	return chart.Load(chart.Fileset(files))
}

// LoadBuiltinChart loads one of the embedded evaluation charts: "nginx",
// "mlflow", "postgresql", "rabbitmq", or "sonarqube".
func LoadBuiltinChart(name string) (*Chart, error) {
	return charts.Load(name)
}

// BuiltinCharts lists the embedded evaluation workloads.
func BuiltinCharts() []string { return charts.Names() }

// GeneratePolicy runs the KubeFence pipeline (values-schema generation →
// configuration-space exploration → manifest rendering → validator
// consolidation) for a chart.
func GeneratePolicy(c *Chart, opts Options) (*Policy, error) {
	res, err := core.GeneratePolicy(c, core.Options{
		Workload: opts.Workload,
		Mode:     opts.Mode,
		Schema:   schema.Options{DisableLocks: opts.DisableSecurityLocks},
	})
	if err != nil {
		return nil, err
	}
	return &Policy{
		Workload:  res.Workload,
		Variants:  res.Variants,
		Manifests: res.Manifests,
		validator: res.Validator,
	}, nil
}

// ValidateManifest checks a YAML manifest against the policy. An empty
// result means the request conforms.
func (p *Policy) ValidateManifest(data []byte) ([]Violation, error) {
	o, err := object.ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("kubefence: parsing manifest: %w", err)
	}
	return p.validator.Validate(o), nil
}

// ValidateObject checks a decoded object (e.g. a parsed JSON request
// body) against the policy.
func (p *Policy) ValidateObject(obj map[string]any) []Violation {
	return p.validator.Validate(object.Object(obj))
}

// AllowedKinds lists the resource kinds the policy permits.
func (p *Policy) AllowedKinds() []string { return p.validator.AllowedKinds() }

// AllowedPaths lists the field paths the policy permits for a kind.
func (p *Policy) AllowedPaths(kind string) []string { return p.validator.AllowedPaths(kind) }

// MarshalYAML serializes the policy validator in the paper's notation.
func (p *Policy) MarshalYAML() ([]byte, error) { return p.validator.MarshalYAML() }

// Validator exposes the underlying validator for advanced integration
// (surface measurement, custom enforcement points).
func (p *Policy) Validator() *validator.Validator { return p.validator }

// CompiledPolicy is a policy lowered into the flat, immutable rule
// program the enforcement hot path executes: interned field paths, a
// contiguous rule table with precompiled matchers, and mode-resolved
// required-field bitsets. It is immutable and safe for unbounded
// concurrent use, validates with near-zero allocations, and returns
// verdicts and violations identical to the tree-walk Policy methods.
//
// Registry-backed proxies compile automatically at Register/Swap; use
// Compile directly for custom enforcement points that validate without
// a registry.
type CompiledPolicy struct {
	program *compile.Program
}

// Compile lowers the policy into its compiled form.
func (p *Policy) Compile() (*CompiledPolicy, error) {
	prog, err := compile.Compile(p.validator)
	if err != nil {
		return nil, fmt.Errorf("kubefence: compiling policy %s: %w", p.Workload, err)
	}
	return &CompiledPolicy{program: prog}, nil
}

// ValidateManifest checks a YAML manifest against the compiled policy.
func (c *CompiledPolicy) ValidateManifest(data []byte) ([]Violation, error) {
	o, err := object.ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("kubefence: parsing manifest: %w", err)
	}
	return c.program.Validate(o), nil
}

// ValidateObject checks a decoded object against the compiled policy.
func (c *CompiledPolicy) ValidateObject(obj map[string]any) []Violation {
	return c.program.Validate(object.Object(obj))
}

// MatchRaw runs the streaming fast pass over a raw JSON body without
// decoding it. The contract is one-sided: true means the body provably
// decodes and the policy definitively allows it (identical verdict to
// ValidateManifest with no violations); false means only "not vouched
// for here" — fall back to ValidateManifest for the verdict and the
// violation diagnostics.
func (c *CompiledPolicy) MatchRaw(body []byte) bool {
	return c.program.MatchRaw(body)
}

// MatchRawYAML is MatchRaw for a raw YAML manifest: the same one-sided
// contract, fused on the manifest decoder's line discipline. Constructs
// the streaming matcher cannot prove equivalent to a full decode
// (anchors, tags, flow collections, block scalars, multi-document
// streams, duplicate keys, ambiguous scalar literals) return false and
// take the decode path.
func (c *CompiledPolicy) MatchRawYAML(body []byte) bool {
	return c.program.MatchRawYAML(body)
}

// UnionPolicies combines per-workload policies into one cluster policy: a
// request is allowed if it conforms to the union of what the member
// workloads may do. Use this when a single KubeFence proxy fronts an API
// server shared by several operators. All members must share a lock mode.
func UnionPolicies(name string, policies ...*Policy) (*Policy, error) {
	if len(policies) == 0 {
		return nil, fmt.Errorf("kubefence: union of zero policies")
	}
	vs := make([]*validator.Validator, len(policies))
	variants, manifests := 0, 0
	for i, p := range policies {
		vs[i] = p.validator
		variants += p.Variants
		manifests += p.Manifests
	}
	merged, err := validator.Union(name, vs...)
	if err != nil {
		return nil, err
	}
	return &Policy{
		Workload:  name,
		Variants:  variants,
		Manifests: manifests,
		validator: merged,
	}, nil
}

// Registry holds the per-workload policies of one enforcement point: it
// resolves, per request, the most specific policy for an object's
// namespace and kind, supports atomic hot-swap of individual policies,
// and aggregates per-workload metrics and violation records.
type Registry = registry.Registry

// Selector scopes a registered policy to the requests it governs; the
// zero value matches every request.
type Selector = registry.Selector

// WorkloadMetrics aggregates per-workload enforcement counters.
type WorkloadMetrics = registry.Metrics

// RegistryConfig configures a policy registry.
type RegistryConfig struct {
	// CacheSize bounds each workload's decision-cache shard (cached
	// validation outcomes keyed by policy generation and request-body
	// hash; one bounded LRU per registered workload, so tenants never
	// contend on a shared cache lock). Zero disables caching.
	CacheSize int
	// Mode selects lock enforcement for policies GenerateRegistry
	// generates (default LockIfPresent).
	Mode LockMode
	// ShadowWindow sizes each workload's sliding window of shadow-mode
	// would-deny verdicts, the basis of the rollout promotion gate. Size
	// it to cover the traffic burst you want a candidate judged over
	// (zero means the registry default of 512).
	ShadowWindow int
}

// NewRegistry builds an empty multi-workload policy registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	return registry.New(registry.Config{
		CacheSize:    cfg.CacheSize,
		ShadowWindow: cfg.ShadowWindow,
	})
}

// Register adds the policy to a registry under the given selector. The
// policy's workload name is the registry key (must be unique).
func (p *Policy) Register(r *Registry, sel Selector) error {
	_, err := r.Register(p.Workload, sel, p.validator)
	return err
}

// Swap atomically replaces the registered policy for p's workload —
// policy regeneration without proxy restarts, scoped to one workload.
func (p *Policy) Swap(r *Registry) error {
	return r.Swap(p.Workload, p.validator)
}

// GenerateRegistry runs the policy pipeline for several builtin charts
// and registers each policy scoped to the namespace named after its
// workload — the conventional one-operator-per-namespace deployment.
// Cluster-scoped kinds a policy allows (ClusterRole, …) are claimed via
// the selector's ClusterKinds, since those objects carry no namespace.
// An empty names list loads every builtin chart.
func GenerateRegistry(cfg RegistryConfig, names ...string) (*Registry, error) {
	if len(names) == 0 {
		names = charts.Names()
	}
	r := NewRegistry(cfg)
	for _, name := range names {
		c, err := LoadBuiltinChart(name)
		if err != nil {
			return nil, err
		}
		p, err := GeneratePolicy(c, Options{Workload: name, Mode: cfg.Mode})
		if err != nil {
			return nil, err
		}
		sel := Selector{
			Namespace:    name,
			ClusterKinds: registry.ClusterScopedKinds(p.AllowedKinds()),
		}
		if err := p.Register(r, sel); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ProxyConfig configures the enforcement proxy.
type ProxyConfig struct {
	// Upstream is the API server base URL ("https://host:6443").
	Upstream string
	// Registry supplies per-workload policies resolved per request
	// (required); the proxy denies requests no registered policy governs
	// (fail closed). One policy registered with a zero Selector is the
	// single-workload enforcement point; RegistryConfig.CacheSize sizes
	// the decision cache.
	Registry *Registry
	// Transport carries requests upstream; holds the mTLS client config
	// in complete-mediation deployments. Defaults to
	// http.DefaultTransport.
	Transport http.RoundTripper
	// ProxyUser is the identity asserted upstream over header-
	// authenticated (non-mTLS) channels; must be among the API server's
	// trusted front-proxy users.
	ProxyUser string
	// DisableRawFastPath forces every inspected request through the
	// classic decode-first path instead of the streaming raw-bytes
	// pipeline. Verdicts are identical either way; it is the reference
	// side of the raw-vs-classic equivalence checks.
	DisableRawFastPath bool
	// SinkBuffer, when > 0, moves the OnViolation / OnShadowViolation /
	// Tap callbacks off the request goroutine onto a bounded async ring
	// of this capacity (drops are counted in Proxy.SinkStats, requests
	// never block on a slow sink). Zero keeps callbacks synchronous.
	SinkBuffer int
	// OnViolation receives each denial record, for audit sinks.
	OnViolation func(proxy.ViolationRecord)
	// OnShadowViolation receives each would-deny record of a workload
	// in shadow mode (the request itself was forwarded).
	OnShadowViolation func(proxy.ViolationRecord)
	// Tap receives every inspected request — the live capture feeding
	// offline policy mining (learn traces). Keep it cheap; it runs on
	// the request path.
	Tap func(workload, user, method, path string, obj map[string]any)
	// Telemetry, when non-nil, records every admission decision into the
	// hub's counters and latency histograms (and samples decisions onto
	// its trace ring). Recording is lock-free and allocation-free on the
	// request path; serve the hub with NewTelemetryMux.
	Telemetry *Telemetry
}

// Proxy is the runtime enforcement point; it implements http.Handler.
type Proxy = proxy.Proxy

// ViolationRecord is one denied request, for auditing.
type ViolationRecord = proxy.ViolationRecord

// SinkStats is the async audit sink's delivery accounting (see
// ProxyConfig.SinkBuffer): enqueued, delivered, and — the number that
// must be monitored — dropped events.
type SinkStats = proxy.SinkStats

// NewProxy builds the KubeFence enforcement proxy.
func NewProxy(cfg ProxyConfig) (*Proxy, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("kubefence: ProxyConfig.Registry is required")
	}
	pc := proxy.Config{
		Upstream:           cfg.Upstream,
		Transport:          cfg.Transport,
		Registry:           cfg.Registry,
		ProxyUser:          cfg.ProxyUser,
		DisableRawFastPath: cfg.DisableRawFastPath,
		SinkBuffer:         cfg.SinkBuffer,
		OnViolation:        cfg.OnViolation,
		OnShadowViolation:  cfg.OnShadowViolation,
		Telemetry:          cfg.Telemetry,
	}
	if cfg.Tap != nil {
		tap := cfg.Tap
		pc.Tap = func(workload, user, method, path string, obj object.Object) {
			tap(workload, user, method, path, obj)
		}
	}
	return proxy.New(pc)
}

// ---------------------------------------------------------------------
// Distributed admission plane
// ---------------------------------------------------------------------

// Plane is a distributed admission tier: N proxy replicas behind one
// http.Handler front door. Workloads are sharded across replicas by
// consistent hashing over their selector keys, policy updates propagate
// atomically to every owning replica (Register, Swap, Promote), and
// overloaded or unavailable replicas shed load fail-closed (429/503,
// never a silent allow). See Plane.Metrics for the tier rollup and
// Drain/Kill/Restart for operational control.
type Plane = plane.Plane

// PlaneConfig configures a distributed admission plane: replica count,
// upstream, per-replica cache and backpressure bounds, telemetry, and
// shard placement.
type PlaneConfig = plane.Config

// PlacementPolicy selects how the plane maps shard keys to replicas.
type PlacementPolicy = plane.PlacementPolicy

// Shard-placement policies for PlaneConfig.Placement.
const (
	// PlacementHash is blind consistent hashing (the default).
	PlacementHash = plane.PlacementHash
	// PlacementWeighted is hash placement plus load-aware shard
	// assignments: Plane.Rebalance scores workloads by observed request
	// volume and validation cost, packs shards onto replicas to level
	// the load, and hands each moved shard's decision cache to its new
	// owner so migrated hot sets stay warm.
	PlacementWeighted = plane.PlacementWeighted
)

// RebalanceReport describes one Plane.Rebalance pass: the shard moves
// it committed and the load imbalance before and after.
type RebalanceReport = plane.RebalanceReport

// ShardMove is one shard migration within a RebalanceReport.
type ShardMove = plane.ShardMove

// ReplicaState is a replica's lifecycle state (active, draining, down).
type ReplicaState = plane.ReplicaState

// PlaneMetrics is the tier-level metrics rollup: front-door accounting,
// the publish-window bound, and per-replica detail.
type PlaneMetrics = plane.TierMetrics

// PlaneReplicaMetrics is one replica's slice of the rollup.
type PlaneReplicaMetrics = plane.ReplicaMetrics

// NewPlane builds a distributed admission plane. Register policies with
// Policy.RegisterOn, propagate regenerated ones with Policy.SwapOn, and
// serve the returned Plane as the cluster's single enforcement front
// door.
func NewPlane(cfg PlaneConfig) (*Plane, error) { return plane.New(cfg) }

// RegisterOn adds the policy to a plane under the given selector,
// installing it atomically on every replica that owns a shard of the
// selector (the plane analogue of Policy.Register).
func (p *Policy) RegisterOn(pl *Plane, sel Selector) error {
	return pl.Register(p.Workload, sel, p.validator)
}

// SwapOn atomically propagates a regenerated policy for p's workload to
// every owning replica — no replica ever serves a generation the plane
// has not finished publishing.
func (p *Policy) SwapOn(pl *Plane) error {
	return pl.Swap(p.Workload, p.validator)
}

// Sentinel errors the registry and plane return for permanent (as
// opposed to retryable) distribution failures; test with errors.Is.
var (
	// ErrUnknownWorkload reports an operation addressed to a workload
	// that was never registered.
	ErrUnknownWorkload = registry.ErrUnknownWorkload
	// ErrNotShadowing reports a promotion addressed to a workload that
	// is not in shadow mode.
	ErrNotShadowing = registry.ErrNotShadowing
)

// ---------------------------------------------------------------------
// Telemetry: hot-path histograms, decision traces, /metrics
// ---------------------------------------------------------------------

// Telemetry is an observability hub: sharded atomic decision counters,
// fixed-bucket latency histograms per (workload, verdict, pipeline
// path), and a bounded ring of sampled per-decision traces. Recording
// is lock-free and allocation-free; a nil hub is valid and records
// nothing, so instrumented code needs no guards.
type Telemetry = telemetry.Hub

// TelemetryConfig sizes a hub: trace sampling rate, trace-ring
// capacity, and histogram shard count.
type TelemetryConfig = telemetry.Config

// TelemetrySnapshot is a consistent point-in-time view of a hub (or a
// merged view of several — see Plane.Telemetry), with per-cell
// quantiles derivable from the histogram buckets.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryTrace is one sampled decision: the stage timings from
// resolve through verdict.
type TelemetryTrace = telemetry.Trace

// NewTelemetry builds an observability hub. Set it on ProxyConfig (or
// let PlaneConfig build per-replica hubs) and serve it with
// NewTelemetryMux.
func NewTelemetry(cfg TelemetryConfig) *Telemetry { return telemetry.New(cfg) }

// MergeTelemetry combines several snapshots into one rollup
// (cell-by-cell counter and bucket sums) — the fleet view a scrape of
// many enforcement points wants.
func MergeTelemetry(snaps ...TelemetrySnapshot) TelemetrySnapshot {
	return telemetry.Merge(snaps...)
}

// TelemetryMuxConfig configures the telemetry HTTP surface.
type TelemetryMuxConfig = telemetry.MuxConfig

// NewTelemetryMux builds the observability endpoint: Prometheus
// text-format /metrics, JSON /varz, /healthz, and optionally the
// net/http/pprof handlers. Serve it on a listener separate from the
// enforcement path (see cmd/kubefence's -telemetry-addr).
func NewTelemetryMux(cfg TelemetryMuxConfig) *http.ServeMux { return telemetry.Mux(cfg) }

// ---------------------------------------------------------------------
// Traffic-driven policy learning & the shadow → enforce rollout
// ---------------------------------------------------------------------

// EnforcementMode is a workload's rollout mode. Workloads registered
// through Register/GenerateRegistry enforce; learning workloads start in
// ModeLearn and advance through ModeShadow to ModeEnforce. Change a
// workload's mode with Registry.SetMode, or let a RolloutController
// drive the gates.
type EnforcementMode = registry.Mode

// The rollout lifecycle modes.
const (
	// ModeEnforce validates and denies violating requests (default).
	ModeEnforce = registry.ModeEnforce
	// ModeShadow validates and records would-deny verdicts, but forwards.
	ModeShadow = registry.ModeShadow
	// ModeLearn feeds inspected requests to the workload's miner and
	// forwards without validation.
	ModeLearn = registry.ModeLearn
)

// LearnOptions configure traffic mining: the value-set cardinality
// bound, required-field inference thresholds, pattern prefix length,
// and free-form path suffixes.
type LearnOptions = learn.Options

// MinedPathSummary describes how one mined field path generalized
// (exact value, enumeration, type with range, anchored pattern, any).
type MinedPathSummary = learn.PathSummary

// PolicyDiff compares a traffic-mined policy against a chart-derived
// one — the reviewer's tool before trusting a mined candidate.
type PolicyDiff = learn.DiffReport

// Miner is a streaming policy learner for one workload: feed it
// observed admission objects, then emit the generalized candidate as a
// Policy. It is safe for concurrent use and implements the registry's
// Observer, so it can be attached to a learning workload directly.
type Miner struct {
	m *learn.Miner
}

// NewMiner builds a streaming miner for a workload.
func NewMiner(workload string, opts LearnOptions) *Miner {
	return &Miner{m: learn.New(workload, opts)}
}

// Observe folds one decoded request object into the miner.
func (m *Miner) Observe(obj map[string]any) { m.m.Observe(object.Object(obj)) }

// ObserveManifest folds one YAML manifest into the miner.
func (m *Miner) ObserveManifest(data []byte) error {
	o, err := object.ParseManifest(data)
	if err != nil {
		return fmt.Errorf("kubefence: parsing manifest: %w", err)
	}
	m.m.Observe(o)
	return nil
}

// Requests counts the observations folded in so far.
func (m *Miner) Requests() uint64 { return m.m.Requests() }

// Summaries renders the per-path generalization outcomes of the current
// candidate.
func (m *Miner) Summaries() []MinedPathSummary { return m.m.Summaries() }

// Policy generalizes the observations into a candidate policy. The
// result is a full Policy: it validates, compiles, registers, and swaps
// exactly like a chart-derived one.
func (m *Miner) Policy() (*Policy, error) {
	v, err := m.m.Policy()
	if err != nil {
		return nil, err
	}
	return &Policy{Workload: v.Workload, validator: v}, nil
}

// Diff compares the miner's current candidate against a base policy
// (typically the chart-derived policy for the same workload).
func (m *Miner) Diff(base *Policy) (*PolicyDiff, error) {
	v, err := m.m.Policy()
	if err != nil {
		return nil, err
	}
	return learn.Diff(v, base.validator), nil
}

// LearnPolicy mines a policy from a batch of observed request objects —
// the one-shot form of NewMiner + Observe + Policy, for offline traces.
func LearnPolicy(workload string, objs []map[string]any, opts LearnOptions) (*Policy, error) {
	m := NewMiner(workload, opts)
	for _, o := range objs {
		m.Observe(o)
	}
	return m.Policy()
}

// RolloutGates parameterize the promotion and demotion gates of a
// RolloutController: observations before the first candidate, shadow
// verdicts and maximum would-deny rate before promotion, and the live
// denial rate that demotes an enforcing workload back to shadow.
type RolloutGates = learn.GateConfig

// RolloutTransition records one lifecycle move a controller tick
// performed.
type RolloutTransition = learn.Transition

// RolloutState snapshots one managed workload: mode, policy generation,
// candidates published, shadow verdict counters.
type RolloutState = learn.WorkloadState

// RolloutController advances workloads along learn → shadow → enforce.
// Call Tick periodically (it is cheap and safe alongside live traffic);
// AddWorkload starts a workload from scratch with no policy, Adopt
// places an already-registered policy (e.g. chart-derived) in shadow.
type RolloutController = learn.Controller

// NewRolloutController builds a lifecycle controller over a registry.
func NewRolloutController(r *Registry, gates RolloutGates) *RolloutController {
	return learn.NewController(r, gates)
}

// RenderChart renders a chart with user value overrides into manifests,
// in the order an operator would apply them (convenience for examples and
// tools).
func RenderChart(c *Chart, overrides map[string]any, rel ReleaseOptions) ([][]byte, error) {
	files, err := c.Render(overrides, rel)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, o := range chart.Objects(files) {
		data, err := o.MarshalYAML()
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return out, nil
}
