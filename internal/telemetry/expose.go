package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// Prometheus metric names. The histogram is exposed in seconds (the
// Prometheus base unit); bucket bounds are the power-of-two nanosecond
// bounds converted, so `le` values are exact binary fractions.
const (
	metricDecisions       = "kubefence_decisions_total"
	metricDecisionSeconds = "kubefence_decision_seconds"
	metricTracesSampled   = "kubefence_traces_sampled_total"
	metricScanMemo        = "kubefence_scan_memo_total"
	metricScanMemoEvicted = "kubefence_scan_memo_evictions_total"
)

// WriteMetrics writes a snapshot in the Prometheus text exposition
// format (text/plain; version=0.0.4): one counter family for decision
// counts, one histogram family for decision latency, the sampled trace
// counter, and the scan-memo counters. Output is deterministic
// (workloads and label cells in sorted order) and passes
// ValidateExposition.
func WriteMetrics(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# HELP %s Admission decisions by workload, verdict, and pipeline path.\n", metricDecisions)
	fmt.Fprintf(bw, "# TYPE %s counter\n", metricDecisions)
	for i := range s.Workloads {
		ws := &s.Workloads[i]
		for j := range ws.Cells {
			c := &ws.Cells[j]
			fmt.Fprintf(bw, "%s{workload=%q,verdict=%q,path=%q} %d\n",
				metricDecisions, ws.Workload, c.Verdict, c.Path, c.Count)
		}
	}
	fmt.Fprintf(bw, "# HELP %s Admission decision latency by workload, verdict, and pipeline path.\n", metricDecisionSeconds)
	fmt.Fprintf(bw, "# TYPE %s histogram\n", metricDecisionSeconds)
	for i := range s.Workloads {
		ws := &s.Workloads[i]
		for j := range ws.Cells {
			c := &ws.Cells[j]
			var cum uint64
			for b := 0; b < NumBuckets; b++ {
				cum += c.Buckets[b]
				fmt.Fprintf(bw, "%s_bucket{workload=%q,verdict=%q,path=%q,le=%q} %d\n",
					metricDecisionSeconds, ws.Workload, c.Verdict, c.Path, leLabel(b), cum)
			}
			fmt.Fprintf(bw, "%s_sum{workload=%q,verdict=%q,path=%q} %s\n",
				metricDecisionSeconds, ws.Workload, c.Verdict, c.Path,
				strconv.FormatFloat(float64(c.SumNs)/1e9, 'g', -1, 64))
			fmt.Fprintf(bw, "%s_count{workload=%q,verdict=%q,path=%q} %d\n",
				metricDecisionSeconds, ws.Workload, c.Verdict, c.Path, c.Count)
		}
	}
	fmt.Fprintf(bw, "# HELP %s Decisions sampled onto the trace ring.\n", metricTracesSampled)
	fmt.Fprintf(bw, "# TYPE %s counter\n", metricTracesSampled)
	fmt.Fprintf(bw, "%s %d\n", metricTracesSampled, s.Sampled)
	fmt.Fprintf(bw, "# HELP %s Routing-metadata scans by how the scan memo answered them.\n", metricScanMemo)
	fmt.Fprintf(bw, "# TYPE %s counter\n", metricScanMemo)
	fmt.Fprintf(bw, "%s{outcome=\"hit\"} %d\n", metricScanMemo, s.ScanMemo.Hits)
	fmt.Fprintf(bw, "%s{outcome=\"miss\"} %d\n", metricScanMemo, s.ScanMemo.Misses)
	fmt.Fprintf(bw, "# HELP %s Scan-memo misses whose entry replaced a live one.\n", metricScanMemoEvicted)
	fmt.Fprintf(bw, "# TYPE %s counter\n", metricScanMemoEvicted)
	fmt.Fprintf(bw, "%s %d\n", metricScanMemoEvicted, s.ScanMemo.Evictions)
	return bw.Flush()
}

// leLabel renders bucket b's upper bound in seconds for the `le`
// label: an exact decimal for the power-of-two nanosecond bounds,
// "+Inf" for the overflow bucket.
func leLabel(b int) string {
	bound := BucketBound(b)
	if bound < 0 {
		return "+Inf"
	}
	return strconv.FormatFloat(float64(bound)/1e9, 'g', -1, 64)
}

// ValidateExposition checks data against the Prometheus text-format
// line rules (the expfmt grammar, structurally): every line is a
// comment, blank, or `name[{labels}] value [timestamp]` sample with a
// legal metric name, parseable labels, and a float value; every
// histogram's buckets carry `le` labels, end at +Inf, are cumulative
// (monotonically non-decreasing), and agree with _count. Used by the
// telemetry experiment and tests to pin the /metrics contract.
func ValidateExposition(data []byte) error {
	type hist struct {
		last     uint64
		sawInf   bool
		infCount uint64
	}
	hists := map[string]*hist{}
	counts := map[string]uint64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if err := validateComment(text); err != nil {
				return fmt.Errorf("line %d: %w", line, err)
			}
			continue
		}
		name, labels, value, err := parseSample(text)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le, ok := labels["le"]
			if !ok {
				return fmt.Errorf("line %d: histogram bucket without an le label", line)
			}
			series := name + "{" + labelKey(labels) + "}"
			h := hists[series]
			if h == nil {
				h = &hist{}
				hists[series] = h
			}
			cum := uint64(value)
			if cum < h.last {
				return fmt.Errorf("line %d: bucket counts not cumulative (%d after %d)", line, cum, h.last)
			}
			h.last = cum
			if le == "+Inf" {
				h.sawInf = true
				h.infCount = cum
			} else if _, err := strconv.ParseFloat(le, 64); err != nil {
				return fmt.Errorf("line %d: le label %q is not a float", line, le)
			}
		case strings.HasSuffix(name, "_count"):
			series := strings.TrimSuffix(name, "_count") + "_bucket{" + labelKey(labels) + "}"
			counts[series] = uint64(value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for series, h := range hists {
		if !h.sawInf {
			return fmt.Errorf("histogram series %s has no +Inf bucket", series)
		}
		if c, ok := counts[series]; ok && c != h.infCount {
			return fmt.Errorf("histogram series %s: _count %d != +Inf bucket %d", series, c, h.infCount)
		}
	}
	return nil
}

// validateComment checks a # line: HELP/TYPE lines must name a legal
// metric and (for TYPE) a known type; other comments pass.
func validateComment(text string) error {
	fields := strings.Fields(text)
	if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil
	}
	if len(fields) < 3 || !validMetricName(fields[2]) {
		return fmt.Errorf("malformed %s comment %q", fields[1], text)
	}
	if fields[1] == "TYPE" {
		if len(fields) < 4 {
			return fmt.Errorf("TYPE comment without a type: %q", text)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
	}
	return nil
}

// parseSample parses `name[{labels}] value [timestamp]`.
func parseSample(text string) (name string, labels map[string]string, value float64, err error) {
	rest := text
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", text)
		}
		labels, err = parseLabels(rest[i+1 : end])
		if err != nil {
			return "", nil, 0, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		parts := strings.SplitN(rest, " ", 2)
		if len(parts) != 2 {
			return "", nil, 0, fmt.Errorf("sample line %q has no value", text)
		}
		name, rest = parts[0], strings.TrimSpace(parts[1])
		labels = map[string]string{}
	}
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("illegal metric name %q", name)
	}
	valueField := strings.Fields(rest)
	if len(valueField) < 1 || len(valueField) > 2 {
		return "", nil, 0, fmt.Errorf("sample line %q has no single value", text)
	}
	value, err = strconv.ParseFloat(valueField[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("value %q is not a float", valueField[0])
	}
	return name, labels, value, nil
}

// parseLabels parses `k1="v1",k2="v2"` with escaped quotes.
func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label pair without '=' in %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		if !validLabelName(key) {
			return nil, fmt.Errorf("illegal label name %q", key)
		}
		rest := s[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", s)
		}
		// Scan the quoted value, honoring backslash escapes.
		i := 1
		for i < len(rest) {
			if rest[i] == '\\' {
				i += 2
				continue
			}
			if rest[i] == '"' {
				break
			}
			i++
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		val, err := strconv.Unquote(rest[:i+1])
		if err != nil {
			return nil, fmt.Errorf("bad label value %s: %w", rest[:i+1], err)
		}
		labels[key] = val
		s = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		s = strings.TrimSpace(s)
	}
	return labels, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// labelKey renders a label set minus the le key as a stable series
// key, so a histogram's buckets and its _count line land on the same
// series regardless of bound.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sortStrings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// MuxConfig configures the telemetry HTTP surface.
type MuxConfig struct {
	// Snapshot supplies the metrics view /metrics exposes (required) —
	// a hub's Snapshot method, or a closure merging several.
	Snapshot func() Snapshot
	// Traces, when non-nil, adds the sampled trace records to /varz.
	Traces func() []Trace
	// Varz, when non-nil, supplies extra JSON-able state merged into
	// /varz under "state" (proxy counters, registry metrics, tier
	// rollups).
	Varz func() any
	// Healthz, when non-nil, gates /healthz: a non-nil error serves
	// 503 with the error text. Nil always serves 200.
	Healthz func() error
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

// Mux builds the telemetry endpoint: Prometheus text-format /metrics,
// a JSON /varz (snapshot + traces + extra state), /healthz, and —
// when enabled — the net/http/pprof handlers. Serve it on a separate
// listener from the enforcement path (cmd/kubefence's
// -telemetry-addr); the handlers allocate freely and must never share
// a goroutine budget with admission.
func Mux(cfg MuxConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteMetrics(w, cfg.Snapshot())
	})
	mux.HandleFunc("/varz", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]any{"telemetry": cfg.Snapshot()}
		if cfg.Traces != nil {
			out["traces"] = cfg.Traces()
		}
		if cfg.Varz != nil {
			out["state"] = cfg.Varz()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Healthz != nil {
			if err := cfg.Healthz(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
