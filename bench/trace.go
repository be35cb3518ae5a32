package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/object"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer's public functions; spans inside the product are a
// later change. Every traced request gets a root span, one child span
// per front it is sent through, and sibling spans around the stages
// Proxy.ServeHTTP performs for an inspected request, run by hand on
// the same bytes against a registry of their own.
type spanKind uint8

const (
	spanRequest spanKind = iota
	spanProxy
	spanPlane
	spanSocket
	spanScan
	spanResolve
	spanValidateRaw
	spanDecode
	spanResolveDecoded
	spanValidate
	spanRecord
	spanKinds
)

// firstStage is the first of the hand-run stage spans.
const firstStage = spanScan

var spanNames = [spanKinds]string{
	"request",
	"proxy.serve", "plane.serve", "socket.roundtrip",
	"compile.scan", "registry.resolve", "registry.validate_raw",
	"object.decode", "registry.resolve_decoded", "registry.validate",
	"telemetry.record",
}

// frontSpans maps a front to the span around calls into it.
var frontSpans = [...]spanKind{frontProxy: spanProxy, frontPlane: spanPlane, frontSocket: spanSocket}

type span struct {
	kind       spanKind
	parent     int32 // index of the span that caused this one, -1 for a root
	req        int32 // spans of one request share it
	start, end int64 // ns since the tracer's base
}

// tracer keeps spans in a preallocated slice; nothing is written until
// the workload ends.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// begin reads the clock last and end reads it first, so a span covers
// the call and none of the bookkeeping.
func (t *tracer) begin(kind spanKind, parent, req int32) int32 {
	i := len(t.spans)
	t.spans = append(t.spans, span{kind: kind, parent: parent, req: req})
	t.spans[i].start = int64(time.Since(t.base))
	return int32(i)
}

func (t *tracer) end(i int32) {
	now := int64(time.Since(t.base))
	t.spans[i].end = now
}

// timerNs is the median duration of an empty span: the clock's own
// cost, subtracted from every span (several stages are below 100 ns).
func timerNs() float64 {
	t := newTracer(10001)
	for i := 0; i < cap(t.spans); i++ {
		t.end(t.begin(spanRequest, -1, int32(i)))
	}
	d := make([]float64, len(t.spans))
	for i, s := range t.spans {
		d[i] = float64(s.end - s.start)
	}
	return median(d)
}

// write stores the spans as JSON lines: id, request id, name, parent,
// start and end.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"req":%d,"name":%q,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.req, spanNames[s.kind], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// pathClass is the route one request took through the admission
// pipeline; the budget table has a row per class because their costs
// differ by an order of magnitude.
type pathClass uint8

const (
	classCacheHit pathClass = iota // answered from the decision cache
	classRawMatch                  // decided by the streaming match on the wire bytes
	classDecoded                   // decoded, validated, allowed
	classDenied                    // denied on any path
	pathClasses
)

var classNames = [pathClasses]string{"cache-hit", "raw-match", "decoded-allow", "denied"}

// stages runs the admission pipeline by hand, one public call per
// span, mirroring Proxy.ServeHTTP for an inspected request in enforce
// mode. Its registry is built like the fronts' and fed the same stream,
// so its cache evolves the same way and the fronts are not perturbed.
type stages struct {
	reg *registry.Registry
	hub *telemetry.Hub
}

// pathNamespace is the namespace segment of an API request path, for
// bodies that omit metadata.namespace.
func pathNamespace(path string) string {
	_, rest, ok := strings.Cut(path, "/namespaces/")
	if !ok {
		return ""
	}
	ns, _, _ := strings.Cut(rest, "/")
	return ns
}

// run admits one request and reports the path it took.
func (s *stages) run(t *tracer, root, n int32, r *request, body []byte) pathClass {
	start := time.Now()
	// Every path ends by recording its decision, as the proxy does.
	record := func(class pathClass, workload string, v telemetry.Verdict, p telemetry.Path) pathClass {
		sp := t.begin(spanRecord, root, n)
		s.hub.RecordDecision(workload, v, p, time.Since(start))
		t.end(sp)
		return class
	}

	sp := t.begin(spanScan, root, n)
	var meta compile.RawMeta
	var scanned bool
	if r.yaml {
		meta, scanned = compile.ScanRawYAMLMeta(body)
	} else {
		meta, scanned = compile.ScanRawMeta(body)
	}
	t.end(sp)
	if scanned {
		var entry *registry.Entry
		var found bool
		sp = t.begin(spanResolve, root, n)
		if len(meta.Namespace) > 0 {
			entry, found = s.reg.ResolveRaw(meta.Namespace, meta.Kind)
		} else {
			entry, found = s.reg.Resolve(pathNamespace(r.url.Path), string(meta.Kind))
		}
		t.end(sp)
		if !found {
			return record(classDenied, proxy.UnresolvedWorkload, telemetry.VerdictRejected, telemetry.PathRaw)
		}
		hits := entry.Metrics().CacheHits
		sp = t.begin(spanValidateRaw, root, n)
		validate := s.reg.ValidateRawScanned
		if r.yaml {
			validate = s.reg.ValidateRawYAMLScanned
		}
		vs, decided := validate(entry, body, meta)
		t.end(sp)
		switch {
		case !decided:
		case len(vs) > 0:
			return record(classDenied, entry.Workload(), telemetry.VerdictDenied, telemetry.PathRaw)
		case entry.Metrics().CacheHits != hits:
			return record(classCacheHit, entry.Workload(), telemetry.VerdictAllowed, telemetry.PathRaw)
		default:
			return record(classRawMatch, entry.Workload(), telemetry.VerdictAllowed, telemetry.PathRaw)
		}
	}

	sp = t.begin(spanDecode, root, n)
	decode := object.ParseJSON
	if r.yaml {
		decode = object.ParseManifest
	}
	obj, err := decode(body)
	t.end(sp)
	if err != nil {
		return record(classDenied, proxy.UnresolvedWorkload, telemetry.VerdictRejected, telemetry.PathDecoded)
	}
	namespace := obj.Namespace()
	if namespace == "" {
		namespace = pathNamespace(r.url.Path)
	}
	sp = t.begin(spanResolveDecoded, root, n)
	entry, found := s.reg.Resolve(namespace, obj.Kind())
	t.end(sp)
	if !found {
		return record(classDenied, proxy.UnresolvedWorkload, telemetry.VerdictRejected, telemetry.PathDecoded)
	}
	sp = t.begin(spanValidate, root, n)
	vs := s.reg.Validate(entry, body, obj)
	t.end(sp)
	if len(vs) > 0 {
		return record(classDenied, entry.Workload(), telemetry.VerdictDenied, telemetry.PathDecoded)
	}
	return record(classDecoded, entry.Workload(), telemetry.VerdictAllowed, telemetry.PathDecoded)
}

// tracedReplay is the traced run's request loop. One client replays
// the same first slots of the workload's stream once per pipeline —
// each front, then the hand-run stages — with only that pipeline
// running, as in the untraced run: interleaving them per request makes
// each evict the others' policy programs from the CPU caches and
// inflates every span. Spans of one request share its id across passes.
type tracedReplay struct {
	t        *tracer
	tr       *traffic
	cal      *calibrator
	requests int
	// slow[kind][n] is the slowdown calibrated last before request n's
	// span of that kind was recorded.
	slow [spanKinds][]float64
	// order, when set, is the tenant order of the re-publishes each pass
	// issues on its own pipeline every publishEvery.
	order []int
	class []pathClass
	// mismatches counts requests whose hand-run verdict differs from
	// the ground truth: the stages no longer mirror the proxy.
	mismatches int
	scratch    []byte
}

// Stamp bases keep the replay's bodies apart from every closed-loop
// client's (client i stamps from i*1e14) and the untraced blocks' apart
// from the traced requests', which would otherwise find them in the
// decision cache.
const (
	replayCounterBase   = 5e15
	untracedCounterBase = 51e14
)

// untracedBlock is how many requests the workload's own front serves
// with spans on before it serves the same requests again with spans
// off. Alternating in blocks lets both see the same machine; two whole
// passes a second apart differed by up to 30 % for no other reason.
const untracedBlock = 250

func newReplay(tr *traffic, requests int, order []int, cal *calibrator) *tracedReplay {
	return &tracedReplay{
		cal: cal,
		// A pass records a root and a call span per request, the stage
		// pass a root and up to seven stages.
		t:        newTracer(requests * 14),
		tr:       tr,
		requests: requests,
		order:    order,
		class:    make([]pathClass, 0, requests),
	}
}

// pass replays the stream through one pipeline, calibrating before it
// and again every calibrationAge, and returns the slowdown in force at
// each request. Request n carries the same bytes in every pass.
func (rp *tracedReplay) pass(f *front, one func(n int32, r *request, body []byte)) ([]float64, error) {
	slow := make([]float64, rp.requests)
	var published time.Time
	publishes := 0
	for n := 0; n < rp.requests; n++ {
		slow[n] = rp.cal.recent()
		r := rp.tr.at(n)
		one(int32(n), r, rp.tr.wire(&rp.scratch, r, replayCounterBase+uint64(n)))
		if rp.order != nil && time.Since(published) >= publishEvery {
			if err := f.publish(rp.order[publishes%len(rp.order)]); err != nil {
				return nil, err
			}
			publishes++
			published = time.Now()
		}
	}
	return slow, nil
}

// throughFront replays the stream through f with a root span and a
// span around every call. With untraced set, every block of requests is
// sent once more with spans off, each call timed as the closed-loop
// clients time it; the median of those is what the traced p50 is
// compared with. It returns the clients that sent the requests.
func (rp *tracedReplay) throughFront(f *front, untraced *[]float64) ([]*client, error) {
	cs := newClients(f, rp.tr, 2)
	defer closeClients(cs)
	kind := frontSpans[f.kind]
	var scratch []byte
	var err error
	rp.slow[kind], err = rp.pass(f, func(n int32, r *request, body []byte) {
		root := rp.t.begin(spanRequest, -1, n)
		sp := rp.t.begin(kind, root, n)
		status, err := cs[0].do(f, r, body)
		rp.t.end(sp)
		rp.t.end(root)
		cs[0].score(r, status, err)
		if untraced == nil || (n+1)%untracedBlock != 0 {
			return
		}
		for m := int(n) + 1 - untracedBlock; m <= int(n); m++ {
			r := rp.tr.at(m)
			body := rp.tr.wire(&scratch, r, untracedCounterBase+uint64(m))
			start := time.Now()
			status, err := cs[1].do(f, r, body)
			*untraced = append(*untraced, float64(time.Since(start)))
			cs[1].score(r, status, err)
		}
	})
	return cs, err
}

// throughStages replays the stream through the stages run by hand on
// hand's registry and hub.
func (rp *tracedReplay) throughStages(hand *front) error {
	st := stages{reg: hand.proxy.Registry(), hub: hand.proxy.Telemetry()}
	slow, err := rp.pass(hand, func(n int32, r *request, body []byte) {
		root := rp.t.begin(spanRequest, -1, n)
		class := st.run(rp.t, root, n, r, body)
		rp.t.end(root)
		rp.class = append(rp.class, class)
		if (class == classDenied) != r.deny {
			rp.mismatches++
		}
	})
	for k := firstStage; k < spanKinds; k++ {
		rp.slow[k] = slow
	}
	return err
}

// durations regroups the spans per request: d[kind][n] is the length
// of request n's span of that kind, less the timer's own cost, at
// reference speed; or -1 when the request has no such span.
func (rp *tracedReplay) durations(timer float64) [spanKinds][]float64 {
	var d [spanKinds][]float64
	for k := range d {
		d[k] = make([]float64, len(rp.class))
		for n := range d[k] {
			d[k][n] = -1
		}
	}
	for _, s := range rp.t.spans {
		if s.kind != spanRequest {
			d[s.kind][s.req] = max(0, float64(s.end-s.start)-timer) / rp.slow[s.kind][s.req]
		}
	}
	return d
}

// slowdowns is the range of the slowdowns the passes divided by.
func (rp *tracedReplay) slowdowns() (lo, hi float64) {
	lo = math.Inf(1)
	for _, pass := range rp.slow {
		for _, v := range pass {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	return lo, hi
}

// ran filters out the requests that did not reach a stage.
func ran(d []float64) []float64 {
	out := make([]float64, 0, len(d))
	for _, v := range d {
		if v >= 0 {
			out = append(out, v)
		}
	}
	return out
}
