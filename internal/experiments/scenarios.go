package experiments

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/replay"
	"repro/internal/synth"
)

// ScenariosOptions configure the synthetic-corpus scaling experiment.
type ScenariosOptions struct {
	// Synth is the generated corpus size (default 100).
	Synth int
	// Seed drives corpus generation and trace interleaving (default 1).
	Seed int64
	// Concurrency is the number of replaying clients (default 8).
	Concurrency int
	// CacheSize bounds each workload's decision-cache shard (0 disables).
	CacheSize int
	// MaxPerAttackClass caps mutation variants per (attack, class) pair —
	// the reduced matrix for CI smoke runs. Zero means the full matrix.
	MaxPerAttackClass int
	// Counts lists the registered-workload counts to measure at
	// (default 1, N/4, N/2, N).
	Counts []int
}

// ScenarioCell is one (workload count, engine) measurement: the full
// benign + adversarial replay for the corpus prefix of that size.
type ScenarioCell struct {
	// Workloads is how many corpus workloads were registered and replayed.
	Workloads int `json:"workloads"`
	// Engine is the validation path: "raw" (compiled program with the
	// decode-free fast path), "compiled" (decode-first compiled program),
	// or "interpreted" (tree walk).
	Engine string `json:"engine"`

	replay.Result
}

// ScenariosResult is the machine-readable outcome.
type ScenariosResult struct {
	Synth             int           `json:"synth_workloads"`
	Seed              int64         `json:"seed"`
	Concurrency       int           `json:"concurrency"`
	CacheSize         int           `json:"cache_size"`
	MaxPerAttackClass int           `json:"max_per_attack_class,omitempty"`
	Generator         synth.Options `json:"generator"`
	// VerifiedPairs records that every generated (policy, trace) pair
	// passed synth.Verify (both engines agree, benign trace allowed)
	// before any replay ran.
	VerifiedPairs bool  `json:"verified_pairs"`
	Counts        []int `json:"counts"`

	Cells []ScenarioCell `json:"cells"`

	TotalFalseNegatives int   `json:"total_false_negatives"`
	TotalFalsePositives int   `json:"total_false_positives"`
	Errors              int   `json:"errors"`
	ElapsedNs           int64 `json:"elapsed_ns"`
}

// Clean reports a run with verified pairs and a zero-FN / zero-FP /
// zero-error line across every cell.
func (r *ScenariosResult) Clean() bool {
	return r.VerifiedPairs && r.TotalFalseNegatives == 0 &&
		r.TotalFalsePositives == 0 && r.Errors == 0
}

// Cell returns the measurement for a (workloads, engine) pair.
func (r *ScenariosResult) Cell(workloads int, engine string) *ScenarioCell {
	for i := range r.Cells {
		if r.Cells[i].Workloads == workloads && r.Cells[i].Engine == engine {
			return &r.Cells[i]
		}
	}
	return nil
}

// scenarioEngines lists the validation paths every count is measured
// under, matching the acceptance bar: both engines plus the raw fast
// path must hold the 0 FN / 0 FP line on the generated corpus.
func scenarioEngines() []string { return []string{"raw", "compiled", "interpreted"} }

// Scenarios generates the synthetic workload corpus, verifies every
// (policy, trace) pair, and replays the interleaved benign + adversarial
// trace at increasing registered-workload counts under all three
// validation paths. Events are grouped per workload, so a smaller count
// replays an exact prefix of the larger count's corpus.
func Scenarios(opts ScenariosOptions) (*ScenariosResult, error) {
	if opts.Synth <= 0 {
		opts.Synth = 100
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	counts := opts.Counts
	if len(counts) == 0 {
		counts = []int{1, opts.Synth / 4, opts.Synth / 2, opts.Synth}
	}
	sort.Ints(counts)
	counts = dedupCounts(counts, opts.Synth)
	if len(counts) == 0 {
		return nil, fmt.Errorf("experiments: scenarios: no valid workload counts")
	}

	genOpts := synth.Options{Seed: opts.Seed, Count: opts.Synth}
	ws, err := synth.Generate(genOpts)
	if err != nil {
		return nil, err
	}
	for i := range ws {
		if err := synth.Verify(&ws[i]); err != nil {
			return nil, err
		}
	}

	// Per-workload event slices, built once and shared across cells.
	perWorkload := make([][]replay.Event, len(ws))
	for i := range ws {
		benign, attacks, err := workloadTrace(ws[i].Name, ws[i].Objects, opts.MaxPerAttackClass, false)
		if err != nil {
			return nil, err
		}
		perWorkload[i] = append(benign, attacks...)
	}

	out := &ScenariosResult{
		Synth:             opts.Synth,
		Seed:              opts.Seed,
		Concurrency:       opts.Concurrency,
		CacheSize:         opts.CacheSize,
		MaxPerAttackClass: opts.MaxPerAttackClass,
		Generator:         genOpts.Resolved(),
		VerifiedPairs:     true,
		Counts:            counts,
	}
	start := time.Now()
	for _, engine := range scenarioEngines() {
		for _, count := range counts {
			cell, err := runScenarioCell(ws[:count], perWorkload[:count], engine, opts)
			if err != nil {
				return nil, err
			}
			out.Cells = append(out.Cells, *cell)
			out.TotalFalseNegatives += cell.FalseNegatives
			out.TotalFalsePositives += cell.FalsePositives
			out.Errors += cell.Errors
		}
	}
	out.ElapsedNs = time.Since(start).Nanoseconds()
	return out, nil
}

func runScenarioCell(ws []synth.Workload, perWorkload [][]replay.Event, engine string, opts ScenariosOptions) (*ScenarioCell, error) {
	reg := registry.New(registry.Config{
		CacheSize:   opts.CacheSize,
		Interpreted: engine == "interpreted",
	})
	for i := range ws {
		if _, err := reg.Register(ws[i].Name, registry.Selector{Namespace: ws[i].Name}, ws[i].Policy); err != nil {
			return nil, err
		}
	}
	p, err := proxy.New(proxy.Config{
		Upstream:  "http://upstream.invalid",
		Transport: NullTransport{},
		Registry:  reg,
		ProxyUser: "kubefence-proxy",
		// "raw" exercises the decode-free fast path; "compiled" forces the
		// decode-first path through the same compiled programs.
		DisableRawFastPath: engine != "raw",
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(p)
	defer ts.Close()

	var events []replay.Event
	for _, evs := range perWorkload {
		events = append(events, evs...)
	}
	res, err := replay.Run(ts.URL, events, replay.Options{
		Concurrency: opts.Concurrency,
		Seed:        opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &ScenarioCell{Workloads: len(ws), Engine: engine, Result: *res}, nil
}

func dedupCounts(counts []int, max int) []int {
	var out []int
	seen := map[int]bool{}
	for _, c := range counts {
		if c < 1 || c > max || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

// RenderScenarios renders the result for humans.
func RenderScenarios(r *ScenariosResult) string {
	var b strings.Builder
	b.WriteString("Scenario corpus: synthetic workloads, benign + adversarial replay at scale\n\n")
	fmt.Fprintf(&b, "corpus: %d workloads (seed %d)   verified pairs: %v   concurrency: %d   cache: %d\n",
		r.Synth, r.Seed, r.VerifiedPairs, r.Concurrency, r.CacheSize)
	if r.MaxPerAttackClass > 0 {
		fmt.Fprintf(&b, "reduced matrix: max %d variants per (attack, class)\n", r.MaxPerAttackClass)
	}
	fmt.Fprintf(&b, "\n%-10s %-12s %10s %10s %10s %6s %6s %6s %12s\n",
		"workloads", "engine", "events", "benign", "attacks", "FN", "FP", "err", "events/sec")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-10d %-12s %10d %10d %10d %6d %6d %6d %12.0f\n",
			c.Workloads, c.Engine, c.Events, c.BenignEvents, c.AttackEvents,
			c.FalseNegatives, c.FalsePositives, c.Errors, c.EventsPerSec)
	}
	fmt.Fprintf(&b, "\nfalse negatives: %d   false positives: %d   errors: %d   clean: %v\n",
		r.TotalFalseNegatives, r.TotalFalsePositives, r.Errors, r.Clean())
	return b.String()
}
