// Command kfbench regenerates the paper's tables and figures (§VI) and
// replays the verdict matrices that grew beside them:
//
//	kfbench -experiment fig5       # motivation: e2e coverage vs CVEs
//	kfbench -experiment fig9       # API usage matrix
//	kfbench -experiment fig11      # audit2rbac policy inference
//	kfbench -experiment table1     # attack-surface reduction
//	kfbench -experiment table2     # malicious-spec catalog
//	kfbench -experiment table3     # mitigation, RBAC vs KubeFence
//	kfbench -experiment table4     # deployment latency (-reps N)
//	kfbench -experiment resources  # proxy CPU/memory overhead
//	kfbench -experiment robustness # mutated attacks + benign trace, 0 FN / 0 FP
//	kfbench -experiment learning   # learn → shadow → enforce, mined policies vs the matrix
//	kfbench -experiment scenarios  # synthetic corpus through the raw and decode paths
//	kfbench -experiment plane      # matrix + cache handoff through a rebalanced tier
//	kfbench -experiment all        # every row above, in that order
//
// The four verdict experiments exit non-zero unless their report is
// clean (no false negative, false positive or replay error; verified
// pairs; every chart converged and promoted), in both output modes:
//
//	kfbench -experiment robustness -concurrency 8 -cache 4096 -seed 1 -json
//	kfbench -experiment robustness -wire yaml -synth 100
//	kfbench -experiment learning -charts nginx -max-per-class 2
//	kfbench -experiment scenarios -synth 25 -max-per-class 2
//	kfbench -experiment plane -replicas 2 -synth 8 -cache 1024
//
// Performance is not measured here: bench/ (bash bench/run.sh) is the
// one harness a throughput, latency or allocation number comes from.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/audit"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kfbench:", err)
		os.Exit(1)
	}
}

// options carries every flag-derived knob the experiments read.
type options struct {
	reps        int
	concurrency int
	cacheSize   int
	seed        int64
	charts      []string
	maxPerClass int
	yamlWire    bool
	maxEpochs   int
	synth       int
	replicas    int
}

// report is what one experiment produced: the human rendering, the
// -json payload, and whether the run held its own contract.
type report struct {
	text  string
	data  any
	clean bool
}

// experiment is one row of the dispatch table. The -experiment usage
// string, "all" and the unknown-name error are all derived from the
// table, so a row added here is reachable everywhere.
type experiment struct {
	name string
	run  func(o options) (report, error)
}

// textReport is the -json form of a rendered figure or table.
type textReport struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// text adapts a render-only producer (the paper figures and tables).
func text(name string, render func(o options) (string, error)) experiment {
	return experiment{name, func(o options) (report, error) {
		s, err := render(o)
		return report{text: s, data: textReport{name, s}, clean: true}, err
	}}
}

var table = []experiment{
	text("fig5", func(options) (string, error) { return experiments.Fig5(), nil }),
	text("fig9", func(options) (string, error) { return experiments.Fig9() }),
	text("fig11", func(options) (string, error) {
		return audit.RenderFig11(audit.Event{
			User: "operator:mlflow", Verb: "create", APIGroup: "apps",
			Resource: "deployments", Namespace: "default", Name: "mlflow",
		})
	}),
	text("table1", func(options) (string, error) { return experiments.TableI() }),
	text("table2", func(options) (string, error) { return experiments.TableII(), nil }),
	text("table3", func(options) (string, error) {
		rows, err := experiments.TableIII()
		if err != nil {
			return "", err
		}
		return experiments.RenderTableIII(rows), nil
	}),
	text("table4", func(o options) (string, error) {
		rows, err := experiments.TableIV(o.reps)
		if err != nil {
			return "", err
		}
		return experiments.RenderTableIV(rows), nil
	}),
	text("resources", func(options) (string, error) {
		usage, err := experiments.Resources()
		if err != nil {
			return "", err
		}
		return experiments.RenderResources(usage), nil
	}),
	{"robustness", func(o options) (report, error) {
		res, err := experiments.Robustness(experiments.RobustnessOptions{
			Charts:            o.charts,
			Concurrency:       o.concurrency,
			Seed:              o.seed,
			MaxPerAttackClass: o.maxPerClass,
			CacheSize:         o.cacheSize,
			Synth:             o.synth,
			YAMLWire:          o.yamlWire,
		})
		if err != nil {
			return report{}, err
		}
		return report{experiments.RenderRobustness(res), res, res.Clean()}, nil
	}},
	{"learning", func(o options) (report, error) {
		res, err := experiments.Learning(experiments.LearningOptions{
			Charts:            o.charts,
			Concurrency:       o.concurrency,
			Seed:              o.seed,
			MaxPerAttackClass: o.maxPerClass,
			CacheSize:         o.cacheSize,
			MaxEpochs:         o.maxEpochs,
			Synth:             o.synth,
		})
		if err != nil {
			return report{}, err
		}
		return report{experiments.RenderLearning(res), res, res.Clean()}, nil
	}},
	{"scenarios", func(o options) (report, error) {
		res, err := experiments.Scenarios(experiments.ScenariosOptions{
			Synth:             o.synth,
			Seed:              o.seed,
			Concurrency:       o.concurrency,
			CacheSize:         o.cacheSize,
			MaxPerAttackClass: o.maxPerClass,
		})
		if err != nil {
			return report{}, err
		}
		return report{experiments.RenderScenarios(res), res, res.Clean()}, nil
	}},
	{"plane", func(o options) (report, error) {
		res, err := experiments.Plane(experiments.PlaneOptions{
			Replicas:          o.replicas,
			Synth:             o.synth,
			Seed:              o.seed,
			CacheSize:         o.cacheSize,
			MaxPerAttackClass: o.maxPerClass,
			Concurrency:       o.concurrency,
		})
		if err != nil {
			return report{}, err
		}
		return report{experiments.RenderPlane(res), res, res.Clean()}, nil
	}},
}

// experimentNames lists the table's names in table order.
func experimentNames() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	return names
}

func run(args []string) error {
	names := strings.Join(experimentNames(), " | ")
	fs := flag.NewFlagSet("kfbench", flag.ExitOnError)
	name := fs.String("experiment", "all", names+" | all")
	reps := fs.Int("reps", 10, "repetitions for table4 (paper: 10)")
	concurrency := fs.Int("concurrency", 8, "replaying client goroutines for the verdict experiments")
	cacheSize := fs.Int("cache", 0, "decision-cache size for the verdict experiments (0 disables)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	seed := fs.Int64("seed", 1, "corpus-generation and trace-interleaving seed")
	chartList := fs.String("charts", "", "charts for robustness and learning (comma-separated, default all)")
	maxPerClass := fs.Int("max-per-class", 0, "cap mutation variants per (attack, class) (0 = full matrix)")
	wire := fs.String("wire", "json", "body encoding for robustness replay: json | yaml (yaml drives the YAML raw pipeline)")
	maxEpochs := fs.Int("max-epochs", 8, "benign-replay epochs allowed for learning convergence")
	synthCount := fs.Int("synth", 0, "generated synthetic workloads: corpus size for scenarios and plane (0 = default), extra workloads for robustness and learning (0 = none)")
	replicas := fs.Int("replicas", 8, "tier size for the plane experiment")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *wire != "json" && *wire != "yaml" {
		return fmt.Errorf("-wire: %q is not json or yaml", *wire)
	}
	if *replicas <= 0 {
		return fmt.Errorf("-replicas: %d is not a positive tier size", *replicas)
	}
	o := options{
		reps:        *reps,
		concurrency: *concurrency,
		cacheSize:   *cacheSize,
		seed:        *seed,
		charts:      splitCharts(*chartList),
		maxPerClass: *maxPerClass,
		yamlWire:    *wire == "yaml",
		maxEpochs:   *maxEpochs,
		synth:       *synthCount,
		replicas:    *replicas,
	}

	if *name == "all" {
		for _, e := range table {
			fmt.Printf("================ %s ================\n", e.name)
			if err := runExperiment(e, o, *jsonOut); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range table {
		if e.name == *name {
			return runExperiment(e, o, *jsonOut)
		}
	}
	return fmt.Errorf("unknown experiment %q (have %s | all)", *name, names)
}

// runExperiment is the single dispatch path every experiment goes
// through: run, emit the report in the requested mode, then fail a run
// that is not clean — in BOTH output modes, so a CI step that redirects
// the JSON still goes red, with the human report on stderr saying why.
func runExperiment(e experiment, o options, jsonOut bool) error {
	rep, err := e.run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", e.name, err)
	}
	if jsonOut {
		data, err := json.MarshalIndent(rep.data, "", "  ")
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(append(data, '\n')); err != nil {
			return err
		}
	} else {
		fmt.Println(rep.text)
	}
	if !rep.clean {
		if jsonOut {
			fmt.Fprintln(os.Stderr, rep.text)
		}
		return fmt.Errorf("%s: run not clean", e.name)
	}
	return nil
}

// splitCharts parses the -charts flag; empty means every builtin chart.
func splitCharts(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
