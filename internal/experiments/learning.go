package experiments

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/learn"
	"repro/internal/object"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/replay"
	"repro/internal/synth"
)

// LearningOptions configure the traffic-driven policy learning
// experiment.
type LearningOptions struct {
	// Charts lists the workloads to learn (default: every builtin).
	Charts []string
	// Concurrency is the number of replaying clients (default 8).
	Concurrency int
	// Seed drives the deterministic trace interleavings (default 1).
	Seed int64
	// MaxPerAttackClass caps attack variants per (attack, class) pair
	// for the final false-negative phase — the reduced matrix for CI
	// smoke runs. Zero means the full matrix.
	MaxPerAttackClass int
	// CacheSize bounds each workload's decision-cache shard (0
	// disables).
	CacheSize int
	// MaxEpochs bounds the benign-replay epochs spent converging before
	// the run is declared non-convergent (default 8).
	MaxEpochs int
	// Synth adds that many generated workloads (internal/synth, seeded by
	// Seed) to the learning fleet: their policies are mined from the
	// generated benign traces, then scored against the mutation matrix
	// like the chart workloads.
	Synth int
}

// LearningChartResult scores one workload's learn→shadow→enforce run.
type LearningChartResult struct {
	Chart string `json:"chart"`
	// BenignPerEpoch is the benign trace length replayed each epoch
	// (every rendered object, created then re-applied).
	BenignPerEpoch int `json:"benign_per_epoch"`
	// Epochs is how many benign epochs ran before the chart promoted.
	Epochs int `json:"epochs"`
	// Converged marks the first fully-shadowed epoch with zero would-
	// deny verdicts; ConvergenceRequests counts the benign requests the
	// chart consumed through that epoch — the experiment's headline
	// number, deterministic at two passes over the benign trace.
	Converged           bool  `json:"converged"`
	ConvergenceEpoch    int   `json:"convergence_epoch,omitempty"`
	ConvergenceRequests int   `json:"convergence_requests,omitempty"`
	ShadowFPByEpoch     []int `json:"shadow_fp_by_epoch"`
	// Promoted reports the chart reached enforce mode; Candidates counts
	// the policy generations the controller published on the way.
	Promoted       bool `json:"promoted"`
	PromotionEpoch int  `json:"promotion_epoch,omitempty"`
	Candidates     int  `json:"candidates"`
	// MinedKinds / MinedPaths size the mined policy; DiffMinedOnly /
	// DiffChartOnly compare its surface against the chart-derived policy
	// for the same workload.
	MinedKinds    int `json:"mined_kinds"`
	MinedPaths    int `json:"mined_paths"`
	DiffMinedOnly int `json:"diff_mined_only"`
	DiffChartOnly int `json:"diff_chart_only"`
	// Final-phase scores: the full mutation matrix and one more benign
	// epoch replayed against the ENFORCING mined policy.
	AttackScenarios       int `json:"attack_scenarios"`
	FalseNegatives        int `json:"false_negatives"`
	EnforceBenign         int `json:"enforce_benign"`
	EnforceFalsePositives int `json:"enforce_false_positives"`
}

// LearningResult is the machine-readable outcome.
type LearningResult struct {
	Charts            []string `json:"charts"`
	SynthWorkloads    int      `json:"synth_workloads,omitempty"`
	Seed              int64    `json:"seed"`
	Concurrency       int      `json:"concurrency"`
	CacheSize         int      `json:"cache_size"`
	MaxPerAttackClass int      `json:"max_per_attack_class,omitempty"`
	MaxEpochs         int      `json:"max_epochs"`

	PerChart []*LearningChartResult `json:"per_chart"`

	AllConverged        bool `json:"all_converged"`
	AllPromoted         bool `json:"all_promoted"`
	TotalScenarios      int  `json:"total_scenarios"`
	TotalFalseNegatives int  `json:"total_false_negatives"`
	TotalEnforceFP      int  `json:"total_enforce_fp"`
	Errors              int  `json:"errors"`

	ElapsedNs  int64            `json:"elapsed_ns"`
	Mismatches []replay.Outcome `json:"mismatches,omitempty"`
}

// Clean reports a run that converged everywhere, promoted everywhere,
// and held the zero-FN / zero-FP line with the mined policies enforcing.
func (r *LearningResult) Clean() bool {
	return r.AllConverged && r.AllPromoted &&
		r.TotalFalseNegatives == 0 && r.TotalEnforceFP == 0 && r.Errors == 0
}

// Chart returns the per-chart result by name.
func (r *LearningResult) Chart(name string) *LearningChartResult {
	for _, c := range r.PerChart {
		if c.Chart == name {
			return c
		}
	}
	return nil
}

// Learning runs the traffic-driven policy learning experiment end to
// end: every workload starts with NO policy and a miner attached
// (learn mode), benign chart traces are replayed in epochs through a
// real proxy while the rollout controller advances each workload along
// learn → shadow → enforce, and once every workload enforces its MINED
// policy the full adversarial mutation matrix (internal/mutate) is
// replayed against it, interleaved with one more benign epoch. The
// headline numbers: requests-to-convergence per chart (how much traffic
// buys a deployable policy) and residual false negatives of the mined
// policies (what spec-less learning gives up against the chart-derived
// ground truth — the tests hold this at zero).
func Learning(opts LearningOptions) (*LearningResult, error) {
	names := opts.Charts
	if len(names) == 0 {
		names = charts.Names()
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.MaxEpochs <= 0 {
		opts.MaxEpochs = 8
	}

	// Build each chart's benign trace and attack matrix up front.
	type workloadRun struct {
		res     *LearningChartResult
		objs    []object.Object
		benign  []replay.Event
		attacks []replay.Event
		// lastShadowDenied tracks the cumulative counter between epochs.
		lastShadowDenied uint64
		shadowAtStart    bool
	}
	runs := map[string]*workloadRun{}
	var benignAll []replay.Event
	addWorkload := func(name string, objs []object.Object) error {
		wr := &workloadRun{objs: objs, res: &LearningChartResult{Chart: name}}
		var err error
		if wr.benign, wr.attacks, err = workloadTrace(name, objs, opts.MaxPerAttackClass, false); err != nil {
			return err
		}
		wr.res.BenignPerEpoch = len(wr.benign)
		wr.res.AttackScenarios = len(wr.attacks)
		benignAll = append(benignAll, wr.benign...)
		runs[name] = wr
		return nil
	}
	chartNames := names
	for _, name := range names {
		c, err := charts.Load(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: learning: %w", err)
		}
		files, err := c.Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: name})
		if err != nil {
			return nil, err
		}
		if err := addWorkload(name, chart.Objects(files)); err != nil {
			return nil, err
		}
	}
	// Synthetic fleet extension: generated workloads learn from their
	// generated benign traces, exactly like chart workloads learn from
	// rendered ones.
	if opts.Synth > 0 {
		ws, err := synth.Generate(synth.Options{Seed: opts.Seed, Count: opts.Synth})
		if err != nil {
			return nil, err
		}
		for i := range ws {
			if err := addWorkload(ws[i].Name, ws[i].Objects); err != nil {
				return nil, err
			}
			names = append(names, ws[i].Name)
		}
	}

	// One enforcement point for the whole fleet, every workload under
	// lifecycle management with an empty miner. Epoch boundaries supply
	// the traffic volume, so the controller gates only need the shadow
	// window to be clean — size each window to hold a full epoch.
	maxBenign := 0
	for _, wr := range runs {
		if len(wr.benign) > maxBenign {
			maxBenign = len(wr.benign)
		}
	}
	reg := registry.New(registry.Config{
		CacheSize:    opts.CacheSize,
		ShadowWindow: maxBenign + 1,
	})
	ctl := learn.NewController(reg, learn.GateConfig{
		MinLearnRequests:  1,
		MinShadowRequests: 1,
		MaxShadowDenyRate: 0,
	})
	for _, name := range names {
		kinds := map[string]bool{}
		for _, o := range runs[name].objs {
			kinds[o.Kind()] = true
		}
		kindList := make([]string, 0, len(kinds))
		for k := range kinds {
			kindList = append(kindList, k)
		}
		sel := registry.Selector{
			Namespace:    name,
			ClusterKinds: registry.ClusterScopedKinds(kindList),
		}
		if _, err := ctl.AddWorkload(name, sel, learn.Options{}); err != nil {
			return nil, err
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

	out := &LearningResult{
		Charts:            chartNames,
		SynthWorkloads:    opts.Synth,
		Seed:              opts.Seed,
		Concurrency:       opts.Concurrency,
		CacheSize:         opts.CacheSize,
		MaxPerAttackClass: opts.MaxPerAttackClass,
		MaxEpochs:         opts.MaxEpochs,
	}
	start := time.Now()

	// Convergence phase: benign epochs until every workload enforces.
	for epoch := 1; epoch <= opts.MaxEpochs; epoch++ {
		allEnforcing := true
		for _, name := range names {
			wr := runs[name]
			mode, err := reg.Mode(name)
			if err != nil {
				return nil, err
			}
			wr.shadowAtStart = mode == registry.ModeShadow
			if mode != registry.ModeEnforce {
				allEnforcing = false
				wr.res.Epochs = epoch
			}
		}
		if allEnforcing {
			break
		}
		res, err := replay.Run(ts.URL, benignAll, replay.Options{
			Concurrency: opts.Concurrency,
			Seed:        opts.Seed + int64(epoch),
		})
		if err != nil {
			return nil, err
		}
		out.Errors += res.Errors
		// Benign traffic must NEVER be denied during learn/shadow — a
		// 403 here is a harness regression, not a policy verdict.
		out.TotalEnforceFP += res.FalsePositives

		for _, name := range names {
			wr := runs[name]
			e, ok := reg.Entry(name)
			if !ok {
				return nil, fmt.Errorf("experiments: learning: %s vanished from the registry", name)
			}
			met := e.Metrics()
			epochFP := int(met.ShadowDenied - wr.lastShadowDenied)
			wr.lastShadowDenied = met.ShadowDenied
			if wr.shadowAtStart {
				wr.res.ShadowFPByEpoch = append(wr.res.ShadowFPByEpoch, epochFP)
				if epochFP == 0 && !wr.res.Converged {
					wr.res.Converged = true
					wr.res.ConvergenceEpoch = epoch
					wr.res.ConvergenceRequests = epoch * wr.res.BenignPerEpoch
				}
			}
		}
		for _, tr := range ctl.Tick() {
			if tr.To == registry.ModeEnforce {
				runs[tr.Workload].res.Promoted = true
				runs[tr.Workload].res.PromotionEpoch = epoch
			}
		}
	}

	// Mined-policy audit: size, chart-policy diff, lifecycle counters.
	chartPols, err := Policies()
	if err != nil {
		return nil, err
	}
	states := ctl.States()
	for _, st := range states {
		wr := runs[st.Workload]
		if wr == nil {
			continue
		}
		wr.res.Candidates = st.Candidates
	}
	for _, name := range names {
		wr := runs[name]
		miner, ok := ctl.Miner(name)
		if !ok {
			continue
		}
		mined, err := miner.Policy()
		if err != nil {
			continue
		}
		wr.res.MinedKinds = len(mined.AllowedKinds())
		for _, k := range mined.AllowedKinds() {
			wr.res.MinedPaths += len(mined.AllowedPaths(k))
		}
		if base := chartPols[name]; base != nil {
			d := learn.Diff(mined, base)
			wr.res.DiffMinedOnly = len(d.MinedOnly)
			wr.res.DiffChartOnly = len(d.BaseOnly)
		}
	}

	// Final phase: the adversarial matrix interleaved with one more
	// benign epoch, against the ENFORCING mined policies. Only run it
	// once every workload promoted — scoring attacks against a
	// forwarding (learn/shadow) workload would count meaningless FNs.
	out.AllConverged, out.AllPromoted = true, true
	for _, name := range names {
		wr := runs[name]
		if !wr.res.Converged {
			out.AllConverged = false
		}
		if !wr.res.Promoted {
			out.AllPromoted = false
		}
	}
	if out.AllPromoted {
		var final []replay.Event
		for _, name := range names {
			final = append(final, runs[name].benign...)
			final = append(final, runs[name].attacks...)
		}
		res, err := replay.Run(ts.URL, final, replay.Options{
			Concurrency: opts.Concurrency,
			Seed:        opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		out.Errors += res.Errors
		out.Mismatches = res.Mismatches
		for _, name := range names {
			wr := runs[name]
			ws := res.PerWorkload[name]
			if ws == nil {
				continue
			}
			wr.res.EnforceBenign = ws.BenignEvents
			wr.res.EnforceFalsePositives = ws.FalsePositives
			wr.res.FalseNegatives = ws.FalseNegatives
			out.TotalScenarios += ws.AttackEvents
			out.TotalFalseNegatives += ws.FalseNegatives
			out.TotalEnforceFP += ws.FalsePositives
		}
	}

	for _, name := range names {
		out.PerChart = append(out.PerChart, runs[name].res)
	}
	sort.Slice(out.PerChart, func(i, j int) bool {
		return out.PerChart[i].Chart < out.PerChart[j].Chart
	})
	out.ElapsedNs = time.Since(start).Nanoseconds()
	return out, nil
}

// RenderLearning renders the result for humans.
func RenderLearning(r *LearningResult) string {
	var b strings.Builder
	b.WriteString("Traffic-driven policy learning: shadow → enforce rollout\n\n")
	fmt.Fprintf(&b, "charts: %s   seed: %d   concurrency: %d   cache: %d   max epochs: %d\n",
		strings.Join(r.Charts, ","), r.Seed, r.Concurrency, r.CacheSize, r.MaxEpochs)
	if r.SynthWorkloads > 0 {
		fmt.Fprintf(&b, "synthetic fleet: %d generated workloads (internal/synth, seed %d)\n",
			r.SynthWorkloads, r.Seed)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %10s %6s %5s %6s %6s %5s %5s\n",
		"workload", "benign/e", "converge", "requests", "gens", "kinds", "paths", "attacks", "FN", "FP")
	for _, c := range r.PerChart {
		conv := "-"
		if c.Converged {
			conv = fmt.Sprintf("epoch %d", c.ConvergenceEpoch)
		}
		fmt.Fprintf(&b, "%-12s %8d %8s %10d %6d %5d %6d %6d %5d %5d\n",
			c.Chart, c.BenignPerEpoch, conv, c.ConvergenceRequests, c.Candidates,
			c.MinedKinds, c.MinedPaths, c.AttackScenarios, c.FalseNegatives,
			c.EnforceFalsePositives)
	}
	fmt.Fprintf(&b, "\nmined-vs-chart policy surface:\n")
	for _, c := range r.PerChart {
		fmt.Fprintf(&b, "  %-12s mined-only paths: %-4d chart-only paths: %d\n",
			c.Chart, c.DiffMinedOnly, c.DiffChartOnly)
	}
	fmt.Fprintf(&b, "\nscenarios: %d   false negatives: %d   enforce FPs: %d   errors: %d   clean: %v\n",
		r.TotalScenarios, r.TotalFalseNegatives, r.TotalEnforceFP, r.Errors, r.Clean())
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "  mismatch: %s %s %s -> %d (%s)\n", m.Workload, m.Method, m.Path, m.Status, m.Detail)
	}
	return b.String()
}
