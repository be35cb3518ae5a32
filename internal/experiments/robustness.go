package experiments

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/object"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/replay"
	"repro/internal/synth"
)

// RobustnessOptions configure the adversarial robustness experiment.
type RobustnessOptions struct {
	// Charts lists the workloads to attack (default: every builtin).
	Charts []string
	// Concurrency is the number of replaying clients (default 8).
	Concurrency int
	// Seed drives the deterministic trace interleaving (default 1).
	Seed int64
	// MaxPerAttackClass caps variants per (attack, class) pair — the
	// reduced matrix for CI smoke runs. Zero means the full matrix.
	MaxPerAttackClass int
	// CacheSize bounds each workload's decision-cache shard (0
	// disables), so the adversarial trace also exercises cached-decision
	// correctness.
	CacheSize int
	// Synth adds that many generated workloads (internal/synth, seeded by
	// Seed) to the chart corpus, scaling the matrix past the five
	// hand-written charts.
	Synth int
	// YAMLWire encodes every event body — benign trace and full
	// mutation matrix — as a YAML manifest, replaying the whole run
	// through the proxy's YAML raw pipeline (streaming scan + match,
	// decode fallback) instead of the JSON one. Encodings are
	// round-trip-verified so a codec drift cannot score a hollow pass.
	YAMLWire bool
}

// RobustnessResult is the machine-readable outcome: the replay scores
// plus the experiment configuration that produced them.
type RobustnessResult struct {
	Charts            []string `json:"charts"`
	SynthWorkloads    int      `json:"synth_workloads,omitempty"`
	MaxPerAttackClass int      `json:"max_per_attack_class,omitempty"`
	CacheSize         int      `json:"cache_size"`
	CacheHits         uint64   `json:"cache_hits"`
	// Wire is the body encoding the trace traveled as: "json" or "yaml".
	Wire string `json:"wire"`

	replay.Result
}

// Robustness generates the mutation matrix for each workload, builds one
// multi-workload enforcement point (per-namespace policies, the
// one-operator-per-namespace convention), and replays the interleaved
// benign + adversarial trace through it over HTTP.
func Robustness(opts RobustnessOptions) (*RobustnessResult, error) {
	names := opts.Charts
	if len(names) == 0 {
		names = charts.Names()
	}
	pols, err := Policies()
	if err != nil {
		return nil, err
	}

	reg := registry.New(registry.Config{CacheSize: opts.CacheSize})
	var events []replay.Event
	addTrace := func(name string, objs []object.Object) error {
		benign, attacks, err := workloadTrace(name, objs, opts.MaxPerAttackClass, opts.YAMLWire)
		events = append(append(events, benign...), attacks...)
		return err
	}
	for _, name := range names {
		pol, ok := pols[name]
		if !ok {
			return nil, fmt.Errorf("experiments: robustness: unknown chart %q (have %s)",
				name, strings.Join(charts.Names(), ", "))
		}
		if _, err := reg.Register(name, registry.Selector{
			Namespace:    name,
			ClusterKinds: registry.ClusterScopedKinds(pol.AllowedKinds()),
		}, pol); err != nil {
			return nil, err
		}
		c, err := charts.Load(name)
		if err != nil {
			return nil, err
		}
		files, err := c.Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: name})
		if err != nil {
			return nil, err
		}
		if err := addTrace(name, chart.Objects(files)); err != nil {
			return nil, err
		}
	}

	// Synthetic corpus extension: each generated workload registers its
	// own policy and contributes its benign trace plus mutation matrix,
	// exactly like a chart workload.
	if opts.Synth > 0 {
		ws, err := synth.Generate(synth.Options{Seed: opts.Seed, Count: opts.Synth})
		if err != nil {
			return nil, err
		}
		for i := range ws {
			w := &ws[i]
			if _, err := reg.Register(w.Name, registry.Selector{Namespace: w.Name}, w.Policy); err != nil {
				return nil, err
			}
			if err := addTrace(w.Name, w.Objects); err != nil {
				return nil, err
			}
		}
	}

	p, err := proxy.New(proxy.Config{
		Upstream:  "http://upstream.invalid",
		Transport: NullTransport{},
		Registry:  reg,
		ProxyUser: "kubefence-proxy",
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(p)
	defer ts.Close()

	res, err := replay.Run(ts.URL, events, replay.Options{
		Concurrency: opts.Concurrency,
		Seed:        opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	wire := "json"
	if opts.YAMLWire {
		wire = "yaml"
	}
	out := &RobustnessResult{
		Charts:            names,
		SynthWorkloads:    opts.Synth,
		MaxPerAttackClass: opts.MaxPerAttackClass,
		CacheSize:         opts.CacheSize,
		Wire:              wire,
		Result:            *res,
	}
	for _, m := range reg.Metrics() {
		out.CacheHits += m.CacheHits
	}
	return out, nil
}

// RenderRobustness renders the result for humans.
func RenderRobustness(r *RobustnessResult) string {
	var b strings.Builder
	b.WriteString("Adversarial robustness: mutated Table II attacks + benign trace replay\n\n")
	wire := r.Wire
	if wire == "" {
		wire = "json"
	}
	fmt.Fprintf(&b, "charts: %s   wire: %s   concurrency: %d   seed: %d   cache: %d (hits %d)\n",
		strings.Join(r.Charts, ","), wire, r.Concurrency, r.Seed, r.CacheSize, r.CacheHits)
	if r.SynthWorkloads > 0 {
		fmt.Fprintf(&b, "synthetic corpus: %d generated workloads (internal/synth, seed %d)\n",
			r.SynthWorkloads, r.Seed)
	}
	fmt.Fprintf(&b, "events: %d (%d benign, %d attack scenarios)   %.0f events/sec\n\n",
		r.Events, r.BenignEvents, r.AttackEvents, r.EventsPerSec)
	fmt.Fprintf(&b, "%-20s %10s %10s %8s\n", "mutation class", "scenarios", "blocked", "FN")
	classes := make([]string, 0, len(r.PerClass))
	for cl := range r.PerClass {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	for _, cl := range classes {
		cs := r.PerClass[cl]
		fmt.Fprintf(&b, "%-20s %10d %10d %8d\n", cl, cs.Scenarios, cs.Blocked, cs.FalseNegatives)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %6s %6s\n", "workload", "benign", "attacks", "FP", "FN")
	workloads := make([]string, 0, len(r.PerWorkload))
	for w := range r.PerWorkload {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		ws := r.PerWorkload[w]
		fmt.Fprintf(&b, "%-12s %8d %8d %6d %6d\n", w, ws.BenignEvents, ws.AttackEvents,
			ws.FalsePositives, ws.FalseNegatives)
	}
	fmt.Fprintf(&b, "\nfalse negatives: %d   false positives: %d   errors: %d   clean: %v\n",
		r.FalseNegatives, r.FalsePositives, r.Errors, r.Clean())
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "  mismatch: %s %s %s -> %d (%s)\n", m.Workload, m.Method, m.Path, m.Status, m.Detail)
	}
	return b.String()
}
