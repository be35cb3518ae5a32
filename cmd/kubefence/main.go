// Command kubefence generates KubeFence security policies from Helm
// charts and runs the enforcement proxy.
//
// Generate a policy from a chart directory (or a builtin workload):
//
//	kubefence generate -chart ./mychart -o policy.yaml
//	kubefence generate -workload nginx
//
// Run the enforcement proxy in front of an API server:
//
//	kubefence proxy -workload nginx -upstream http://127.0.0.1:8001 -listen :8443
//
// Or enforce several workload policies concurrently from one proxy, each
// scoped to the namespace named after its workload:
//
//	kubefence proxy -workloads all -upstream http://127.0.0.1:8001 -cache 4096
//
// Workloads without a usable chart can have their policies MINED from
// traffic instead, via the learn → shadow → enforce rollout lifecycle:
//
//	kubefence proxy -workloads ns1,ns2 -rollout learn -upstream ... \
//	        -rollout-interval 30s -trace-out trace.jsonl
//
// -rollout learn starts every workload with no policy at all: traffic is
// forwarded, observed, and generalized into candidates that are shadowed
// (would-deny verdicts recorded, nothing blocked) and auto-promoted to
// enforcement once the promotion gates hold. -rollout shadow keeps the
// chart-generated policies but rehearses them against live traffic
// before they deny anything. -trace-out additionally records every
// inspected request as JSONL for offline mining and audit.
//
// -telemetry-addr serves the observability surface on a second listener,
// separate from the enforcement path: Prometheus text-format /metrics
// (per-workload decision counters and latency histograms), JSON /varz,
// /healthz, and the net/http/pprof handlers under /debug/pprof/:
//
//	kubefence proxy -workloads all -upstream ... -telemetry-addr :9090
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/object"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/validator"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = runGenerate(os.Args[2:])
	case "proxy":
		err = runProxy(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "kubefence: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kubefence:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  kubefence generate [-chart DIR | -workload NAME] [-o FILE] [-mode lenient|strict] [-schema]
  kubefence proxy    [-chart DIR | -workload NAME | -workloads A,B,..|all] -upstream URL
                     [-listen ADDR] [-proxy-user USER] [-cache N]
                     [-rollout learn|shadow|enforce] [-rollout-interval D] [-trace-out FILE]
                     [-telemetry-addr ADDR] [-telemetry-sample N]

In -workloads mode one proxy enforces every listed builtin policy
concurrently: each workload's policy governs the namespace named after
it (the one-operator-per-namespace convention), requests outside every
registered scope are denied, and individual policies stay hot-swappable.

-rollout selects the lifecycle the workloads start in: "enforce" (the
default) denies violations immediately, "shadow" rehearses the
generated policies against live traffic (would-deny verdicts are
recorded, nothing is blocked) and auto-promotes once they hold a clean
window, and "learn" starts with NO policies at all and mines them from
observed traffic before shadowing and promoting them the same way.
-trace-out appends every inspected request to a JSONL admission trace
for offline mining (kubefence and audit tooling read it back).

-telemetry-addr serves /metrics (Prometheus text format), /varz (JSON),
/healthz, and /debug/pprof/ on a separate listener, so scrapes and
profiles never share the enforcement listener. -telemetry-sample traces
one decision per N onto a bounded in-memory ring, readable via /varz.`)
}

// lockedWriter serializes writes to the shared trace buffer against the
// flush timer.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// loadChart resolves -chart / -workload into a chart.
func loadChart(chartDir, workload string) (*chart.Chart, error) {
	switch {
	case workload != "":
		return charts.Load(workload)
	case chartDir != "":
		return loadChartDir(chartDir)
	default:
		return nil, fmt.Errorf("one of -chart or -workload is required (builtins: %s)",
			strings.Join(charts.Names(), ", "))
	}
}

// loadChartDir reads a chart from disk: Chart.yaml, values.yaml, and
// templates/*.
func loadChartDir(dir string) (*chart.Chart, error) {
	files := chart.Fileset{}
	for _, name := range []string{"Chart.yaml", "values.yaml"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", name, err)
		}
		files[name] = string(data)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "templates"))
	if err != nil {
		return nil, fmt.Errorf("reading templates/: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, "templates", e.Name()))
		if err != nil {
			return nil, err
		}
		files["templates/"+e.Name()] = string(data)
	}
	return chart.Load(files)
}

func generate(chartDir, workload, mode string, disableLocks bool) (*core.Result, error) {
	c, err := loadChart(chartDir, workload)
	if err != nil {
		return nil, err
	}
	opts := core.Options{Schema: schema.Options{DisableLocks: disableLocks}}
	switch mode {
	case "", "lenient":
		opts.Mode = validator.LockIfPresent
	case "strict":
		opts.Mode = validator.LockRequired
	default:
		return nil, fmt.Errorf("unknown -mode %q (lenient or strict)", mode)
	}
	return core.GeneratePolicy(c, opts)
}

func runGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	chartDir := fs.String("chart", "", "chart directory (Chart.yaml, values.yaml, templates/)")
	workload := fs.String("workload", "", "builtin evaluation chart name")
	out := fs.String("o", "", "output file (default stdout)")
	mode := fs.String("mode", "lenient", "lock mode: lenient (lock-if-present) or strict (lock-required)")
	emitSchema := fs.Bool("schema", false, "emit the intermediate values schema instead of the validator")
	noLocks := fs.Bool("no-locks", false, "disable security locks (ablation)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := generate(*chartDir, *workload, *mode, *noLocks)
	if err != nil {
		return err
	}
	var data []byte
	if *emitSchema {
		data, err = res.Schema.MarshalYAML()
	} else {
		data, err = res.Validator.MarshalYAML()
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"kubefence: workload %s: %d variants, %d manifests, %d kinds\n",
		res.Workload, res.Variants, res.Manifests, len(res.Validator.Kinds))
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// multiRegistry builds the multi-workload policy registry the way the
// facade's GenerateRegistry does (one policy per builtin chart,
// namespace-scoped, cluster kinds claimed automatically) and returns the
// validators it generated, in names order: the registry holds only
// their compiled programs.
func multiRegistry(names []string, mode string, cacheSize int) (*registry.Registry, []*validator.Validator, error) {
	reg := registry.New(registry.Config{CacheSize: cacheSize})
	bases := make([]*validator.Validator, len(names))
	for i, name := range names {
		res, err := generate("", name, mode, false)
		if err != nil {
			return nil, nil, err
		}
		sel := registry.Selector{
			Namespace:    name,
			ClusterKinds: registry.ClusterScopedKinds(res.Validator.AllowedKinds()),
		}
		if _, err := reg.Register(name, sel, res.Validator); err != nil {
			return nil, nil, err
		}
		bases[i] = res.Validator
	}
	return reg, bases, nil
}

// telemetryMux serves the proxy's telemetry; the /varz state carries
// its counters and its retained denial records.
func telemetryMux(hub *telemetry.Hub, p *proxy.Proxy) http.Handler {
	return telemetry.Mux(telemetry.MuxConfig{
		Snapshot: hub.Snapshot,
		Traces:   hub.Traces,
		Varz: func() any {
			return struct {
				Metrics    proxy.Metrics           `json:"metrics"`
				Violations []proxy.ViolationRecord `json:"violations"`
			}{p.Metrics(), p.Violations()}
		},
		EnablePprof: true,
	})
}

func runProxy(args []string) error {
	fs := flag.NewFlagSet("proxy", flag.ExitOnError)
	chartDir := fs.String("chart", "", "chart directory")
	workload := fs.String("workload", "", "builtin evaluation chart name")
	workloads := fs.String("workloads", "", "comma-separated builtin charts (or \"all\") enforced concurrently by one proxy")
	upstream := fs.String("upstream", "", "API server base URL (required)")
	listen := fs.String("listen", ":8443", "listen address")
	proxyUser := fs.String("proxy-user", "kubefence-proxy", "identity asserted upstream")
	mode := fs.String("mode", "lenient", "lock mode")
	cacheSize := fs.Int("cache", 0, "per-workload decision-cache shard size (cached validation outcomes; 0 disables)")
	rollout := fs.String("rollout", "enforce", "initial workload lifecycle: learn | shadow | enforce")
	rolloutInterval := fs.Duration("rollout-interval", 15*time.Second, "promotion-gate evaluation interval for learn/shadow rollouts")
	traceOut := fs.String("trace-out", "", "append inspected requests to a JSONL admission trace (offline mining input)")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metrics, /varz, /healthz, and /debug/pprof/ on this address (off when empty)")
	telemetrySample := fs.Int("telemetry-sample", 128, "trace one decision per N onto the telemetry ring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *upstream == "" {
		return fmt.Errorf("-upstream is required")
	}
	rolloutMode, err := registry.ParseMode(*rollout)
	if err != nil {
		return err
	}
	if rolloutMode != registry.ModeEnforce && *workloads == "" {
		return fmt.Errorf("-rollout %s requires -workloads (per-workload namespaces scope what each miner learns)", *rollout)
	}
	onViolation := func(r proxy.ViolationRecord) {
		wl := r.Workload
		if wl == "" {
			wl = "-"
		}
		fmt.Fprintf(os.Stderr, "[%s] DENY workload=%s %s %s %s/%s: %d violation(s)\n",
			r.Time.Format(time.RFC3339), wl, r.User, r.Method, r.Kind, r.Name, len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(os.Stderr, "    %s\n", v)
		}
	}

	cfg := proxy.Config{
		Upstream:    *upstream,
		ProxyUser:   *proxyUser,
		OnViolation: onViolation,
	}
	var hub *telemetry.Hub
	if *telemetryAddr != "" {
		hub = telemetry.New(telemetry.Config{SampleEvery: *telemetrySample})
		cfg.Telemetry = hub
	}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
		defer f.Close()
		// The tap runs on the request path: buffer the writes so request
		// goroutines never serialize on a disk syscall, and flush on a
		// timer. ReadTrace tolerates the truncated final line a crash
		// between flushes can leave behind.
		buf := bufio.NewWriterSize(f, 64*1024)
		var bufMu sync.Mutex
		defer func() {
			bufMu.Lock()
			defer bufMu.Unlock()
			_ = buf.Flush()
		}()
		go func() {
			ticker := time.NewTicker(time.Second)
			defer ticker.Stop()
			for range ticker.C {
				bufMu.Lock()
				_ = buf.Flush()
				bufMu.Unlock()
			}
		}()
		tw := learn.NewTraceWriter(lockedWriter{w: buf, mu: &bufMu})
		cfg.Tap = func(workload, user, method, path string, obj object.Object) {
			_ = tw.Record(learn.TraceEntry{
				Time: time.Now(), Workload: workload, User: user,
				Method: method, Path: path, Object: obj,
			})
		}
	}
	cfg.OnShadowViolation = func(r proxy.ViolationRecord) {
		fmt.Fprintf(os.Stderr, "[%s] SHADOW-DENY workload=%s %s %s %s/%s: %d violation(s) (forwarded)\n",
			r.Time.Format(time.RFC3339), r.Workload, r.User, r.Method, r.Kind, r.Name, len(r.Violations))
	}

	var (
		enforcing string
		ctl       *learn.Controller
	)
	if *workloads != "" {
		if *chartDir != "" || *workload != "" {
			return fmt.Errorf("-workloads is exclusive with -chart and -workload")
		}
		names := charts.Names()
		if *workloads != "all" {
			names = names[:0:0]
			for _, name := range strings.Split(*workloads, ",") {
				if name = strings.TrimSpace(name); name != "" {
					names = append(names, name)
				}
			}
			if len(names) == 0 {
				return fmt.Errorf("-workloads: no workload names given")
			}
		}
		switch rolloutMode {
		case registry.ModeLearn:
			// No chart policies at all: each workload starts empty and
			// mines its policy from its namespace's traffic.
			reg := registry.New(registry.Config{CacheSize: *cacheSize})
			ctl = learn.NewController(reg, learn.GateConfig{})
			for _, name := range names {
				if _, err := ctl.AddWorkload(name, registry.Selector{Namespace: name}, learn.Options{}); err != nil {
					return err
				}
			}
			cfg.Registry = reg
			enforcing = fmt.Sprintf("%d learning workloads (%s)", len(names), strings.Join(names, ", "))
		case registry.ModeShadow:
			// Chart policies exist but rehearse before they deny.
			reg, bases, err := multiRegistry(names, *mode, *cacheSize)
			if err != nil {
				return err
			}
			ctl = learn.NewController(reg, learn.GateConfig{})
			for i, name := range names {
				if _, err := ctl.Adopt(name, bases[i], learn.Options{}); err != nil {
					return err
				}
			}
			cfg.Registry = reg
			enforcing = fmt.Sprintf("%d workload policies in shadow (%s)", len(names), strings.Join(reg.Workloads(), ", "))
		default:
			reg, _, err := multiRegistry(names, *mode, *cacheSize)
			if err != nil {
				return err
			}
			cfg.Registry = reg
			enforcing = fmt.Sprintf("%d workload policies (%s)", len(names), strings.Join(reg.Workloads(), ", "))
		}
	} else {
		res, err := generate(*chartDir, *workload, *mode, false)
		if err != nil {
			return err
		}
		// The paper's single-workload enforcement point: a one-entry
		// registry whose zero Selector scopes the policy to every request.
		reg := registry.New(registry.Config{CacheSize: *cacheSize})
		if _, err := reg.Register(res.Workload, registry.Selector{}, res.Validator); err != nil {
			return err
		}
		cfg.Registry = reg
		enforcing = res.Workload + " policy"
	}
	p, err := proxy.New(cfg)
	if err != nil {
		return err
	}
	if ctl != nil {
		// The promotion-gate loop: evaluate every workload's gates on a
		// timer and log each lifecycle transition.
		go func() {
			ticker := time.NewTicker(*rolloutInterval)
			defer ticker.Stop()
			for range ticker.C {
				for _, tr := range ctl.Tick() {
					fmt.Fprintf(os.Stderr, "kubefence: rollout %s: %s -> %s (gen %d): %s\n",
						tr.Workload, tr.FromName, tr.ToName, tr.Generation, tr.Reason)
				}
			}
		}()
	}
	if hub != nil {
		// The telemetry surface gets its own listener and server: scrapes
		// and pprof captures allocate freely and must never contend with
		// admission traffic for the enforcement listener.
		tsrv := &http.Server{
			Addr:              *telemetryAddr,
			Handler:           telemetryMux(hub, p),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := tsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "kubefence: telemetry:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "kubefence: telemetry on %s (/metrics /varz /healthz /debug/pprof/)\n",
			*telemetryAddr)
	}
	fmt.Fprintf(os.Stderr, "kubefence: enforcing %s, %s -> %s\n",
		enforcing, *listen, *upstream)
	server := &http.Server{
		Addr:              *listen,
		Handler:           p,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return server.ListenAndServe()
}
