// Command bench is the repository's admission benchmark: it builds a
// 64-tenant fleet from a seed, drives it with six named closed-loop
// workloads and reports the end-to-end metrics and, from a separate
// traced run, the per-layer metrics declared in BENCHMARK.json. See
// README.md in this directory for the glossary.
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// is the benchmark driver's form: one workload, one JSON result line.
// Without --workload the whole suite runs and prints a table (and with
// -json one document); -repeat N runs the end-to-end suite N times and
// checks that the runs agree within the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// manifest is BENCHMARK.json: the one place metric names, units,
// directions and bounds are declared. The benchmark refuses to report
// a run whose metrics are not exactly the declared ones.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	declared := make([]string, len(m.Workloads))
	for i, w := range m.Workloads {
		declared[i] = w.Name
	}
	built := make([]string, len(workloads))
	for i, w := range workloads {
		built[i] = w.name
	}
	if !slices.Equal(declared, built) {
		return nil, fmt.Errorf("%s declares workloads %v, the benchmark has %v", path, declared, built)
	}
	return &m, nil
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units pairs a run's metrics with their declared units and fails
// unless the run reported exactly the declared set.
func units(res *result, decls []metricDecl) (map[string]reported, error) {
	out := make(map[string]reported, len(decls))
	for _, d := range decls {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: declared metric %s has no value (%v)", res.Workload, d.Name, v)
		}
		out[d.Name] = reported{v, d.Unit}
	}
	for name := range res.Metrics {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("%s: metric %s is not declared in BENCHMARK.json", res.Workload, name)
		}
	}
	return out, nil
}

// manifestPath is relative to the checkout's root, where the benchmark
// is run from.
const manifestPath = "BENCHMARK.json"

// options is one invocation's shape.
type options struct {
	seed     int64
	seconds  float64
	traceOut string
}

func main() {
	var (
		name   = flag.String("workload", "", "run one workload and print one result line (the benchmark driver's form); empty runs the whole suite")
		trace  = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		asJSON = flag.Bool("json", false, "suite: print one JSON document on standard output, the table on standard error")
		repeat = flag.Int("repeat", 1, "suite: run the end-to-end suite this many times and exit non-zero if runs disagree by more than the bounds")
		opts   options
	)
	flag.Int64Var(&opts.seed, "seed", 1, "seed of the request order, attack order and publish order")
	flag.Float64Var(&opts.seconds, "seconds", 0, "measured seconds per workload (default: the manifest's run_seconds)")
	flag.StringVar(&opts.traceOut, "trace-out", ".bench_build/spans", "directory the traced run writes <workload>.jsonl span files to")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	m, err := loadManifest(manifestPath)
	if err != nil {
		fatal(err)
	}
	if opts.seconds == 0 {
		opts.seconds = float64(m.RunSeconds)
	}
	switch {
	case *name != "":
		err = runOne(m, *name, *trace != 0, opts)
	case *repeat > 1:
		err = runRepeat(m, *repeat, opts)
	default:
		err = runSuite(m, *asJSON, opts)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// environment is the first line of every human output.
func environment(opts options) string {
	return fmt.Sprintf("seed %d, %d clients (closed loop), nproc %d, GOMAXPROCS %d, %s, %.0f s per workload; times at reference speed; socket traffic crosses the host loopback, not a link",
		opts.seed, clientCount(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), opts.seconds)
}

// runOne is the driver's form: the last line of standard output is the
// result object; everything for a reader goes to standard error.
func runOne(m *manifest, name string, traced bool, opts options) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	in, err := generate(opts.seed)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Fprintln(os.Stderr, environment(opts))
	var res *result
	decls := m.EndToEnd
	if traced {
		decls = m.PerLayer
		probes, err := runProbes(in, probePasses)
		if err != nil {
			return err
		}
		var budget string
		if res, budget, err = runTraced(w, in, probes, opts.seconds, tracedRequests, opts.traceOut); err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, budget)
	} else {
		if res, err = runEndToEnd(w, in, opts.seconds); err != nil {
			return err
		}
		printEndToEnd(os.Stderr, m, res)
	}
	metrics, err := units(res, decls)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted uint64              `json:"attempted"`
		Failed    uint64              `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.correct() {
		return fmt.Errorf("%s: %v", w.name, res.Invalid)
	}
	return nil
}

// spread renders the quartiles and the range of sorted slice values.
func spread(sorted []float64) string {
	return fmt.Sprintf("quartiles %.4f..%.4f, range %.4f..%.4f",
		quantile(sorted, 0.25), quantile(sorted, 0.75), sorted[0], sorted[len(sorted)-1])
}

func printEndToEnd(w io.Writer, m *manifest, res *result) {
	samples := 0
	for _, s := range res.Slices {
		samples += s.Samples
	}
	fmt.Fprintf(w, "%s: attempted %d, failed %d (failed_share %g), %d latency samples in %d slices, first %d bodies sha256 %s\n",
		res.Workload, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted),
		samples, len(res.Slices), hashedBodies, res.BodiesSHA256)
	fmt.Fprintf(w, "  machine slowdown against reference speed while measuring: %s\n",
		spread(sliceValues(res.Slices, func(s slice) float64 { return s.Slowdown })))
	fmt.Fprintf(w, "  %-22s %14s %-6s %14s\n", "metric", "at ref. speed", "unit", "as measured")
	for _, d := range m.EndToEnd {
		fmt.Fprintf(w, "  %-22s %14.4f %-6s", d.Name, res.Metrics[d.Name], d.Unit)
		if v, ok := res.Measured[d.Name]; ok {
			fmt.Fprintf(w, " %14.4f", v)
		} else {
			fmt.Fprintf(w, " %14s", "(a count)")
		}
		fmt.Fprintf(w, "  (%s is better, bound %.2f)", d.Better, d.Bound)
		for _, sm := range sliceMetrics {
			if sm.name == d.Name {
				fmt.Fprintf(w, "  slices: %s", spread(sliceValues(res.Slices, func(s slice) float64 {
					return atReference(s, sm.measured, sm.speed)
				})))
			}
		}
		fmt.Fprintln(w)
	}
	p99 := func(s slice) float64 { return s.P99us }
	fmt.Fprintf(w, "  %-22s %14.4f %-6s %14.4f  (printed, not declared: see README)\n", "p99_us",
		median(sliceValues(res.Slices, func(s slice) float64 { return atReference(s, p99, -1) })), "us",
		median(sliceValues(res.Slices, p99)))
	for _, msg := range res.Invalid {
		fmt.Fprintln(w, "  INVALID:", msg)
	}
}

func printPerLayer(w io.Writer, m *manifest, res *result, budget string) {
	fmt.Fprintf(w, "%s, traced run: attempted %d, failed %d\n", res.Workload, res.Attempted, res.Failed)
	for _, d := range m.PerLayer {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	fmt.Fprint(w, budget)
	for _, msg := range res.Invalid {
		fmt.Fprintln(w, "  INVALID:", msg)
	}
}

// runSuite runs every workload end to end and traced, one after the
// other in this process, and prints one output.
func runSuite(m *manifest, asJSON bool, opts options) error {
	start := time.Now()
	human := io.Writer(os.Stdout)
	if asJSON {
		human = os.Stderr
	}
	in, err := generate(opts.seed)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Fprintln(human, environment(opts))
	type entry struct {
		Workload  string              `json:"workload"`
		EndToEnd  map[string]reported `json:"end_to_end"`
		PerLayer  map[string]reported `json:"per_layer"`
		Run       *result             `json:"end_to_end_run"`
		TracedRun *result             `json:"traced_run"`
	}
	doc := struct {
		Seed       int64   `json:"seed"`
		Clients    int     `json:"clients"`
		NProc      int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		GoVersion  string  `json:"go_version"`
		Seconds    float64 `json:"seconds_per_workload"`
		Loopback   bool    `json:"socket_traffic_on_host_loopback"`
		Workloads  []entry `json:"workloads"`
		WallClockS float64 `json:"wall_clock_s"`
	}{Seed: opts.seed, Clients: clientCount(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seconds: opts.seconds, Loopback: true}
	probes, err := runProbes(in, probePasses)
	if err != nil {
		return err
	}
	correct := true
	for _, w := range workloads {
		e := entry{Workload: w.name}
		if e.Run, err = runEndToEnd(w, in, opts.seconds); err != nil {
			return err
		}
		printEndToEnd(human, m, e.Run)
		var budget string
		if e.TracedRun, budget, err = runTraced(w, in, probes, opts.seconds, tracedRequests, opts.traceOut); err != nil {
			return err
		}
		printPerLayer(human, m, e.TracedRun, budget)
		if e.EndToEnd, err = units(e.Run, m.EndToEnd); err != nil {
			return err
		}
		if e.PerLayer, err = units(e.TracedRun, m.PerLayer); err != nil {
			return err
		}
		correct = correct && e.Run.correct() && e.TracedRun.correct()
		doc.Workloads = append(doc.Workloads, e)
	}
	doc.WallClockS = time.Since(start).Seconds()
	fmt.Fprintf(human, "total wall clock %.1f s\n", doc.WallClockS)
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("a workload failed operations or a validity self-check; see INVALID above")
	}
	return nil
}

// runRepeat runs the end-to-end suite n times back to back and compares
// every later run with the first, metric by metric.
func runRepeat(m *manifest, n int, opts options) error {
	start := time.Now()
	in, err := generate(opts.seed)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Println(environment(opts))
	runs := make([][]*result, n)
	for i := range runs {
		for _, w := range workloads {
			res, err := runEndToEnd(w, in, opts.seconds)
			if err != nil {
				return err
			}
			if !res.correct() {
				return fmt.Errorf("%s: %v", w.name, res.Invalid)
			}
			runs[i] = append(runs[i], res)
		}
	}
	disagreements := 0
	for wi, w := range workloads {
		fmt.Println(w.name)
		for _, d := range m.EndToEnd {
			first := runs[0][wi].Metrics[d.Name]
			fmt.Printf("  %-22s %-6s %14.4f", d.Name, d.Unit, first)
			worst := 0.0
			for i := 1; i < n; i++ {
				v := runs[i][wi].Metrics[d.Name]
				worst = max(worst, math.Abs(v-first)/min(v, first))
				fmt.Printf(" %14.4f", v)
			}
			verdict := "ok"
			if worst > d.Bound {
				verdict = "DISAGREE"
				disagreements++
			}
			fmt.Printf("  diff %.4f  bound %.2f  %s\n", worst, d.Bound, verdict)
		}
	}
	fmt.Printf("total wall clock %.1f s\n", time.Since(start).Seconds())
	if disagreements > 0 {
		return fmt.Errorf("%d workload x metric pairs disagree by more than their bound", disagreements)
	}
	return nil
}
