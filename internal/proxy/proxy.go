// Package proxy implements the KubeFence enforcement point (paper §V-B):
// an intercepting proxy deployed between API clients and the Kubernetes
// API server — the role mitmproxy plays in the paper's implementation.
//
// Every incoming request is authenticated, and write requests (create,
// update, patch) have their body checked against the workload's policy.
// Conforming requests are forwarded upstream unchanged; violating
// requests are rejected with HTTP 403 and a violation record carrying
// the offending field paths and reasons, enabling the auditing and
// forensics the paper describes.
//
// The admission data path is two steps. ReadRequest builds the front
// end, everything learned from the wire before policy is consulted: the
// body read once into a pooled buffer, its content type classified,
// and, on first use, its SHA-256 and its routing metadata (kind,
// namespace, name). The hash comes first and keys everything
// repeatable: a process-wide scan memo answers the metadata scan of any
// body scanned before (scanmemo.go), so only a body's first appearance
// is walked (compile.ScanRawMeta / compile.ScanRawYAMLMeta), with at
// most one decode as the fallback. Serve then decides: for enforce-mode
// workloads the policy is resolved through the registry's match trie
// without materializing strings (ResolveRaw), the workload's
// decision-cache shard is probed with the same hash, and on a miss the
// compiled program's streaming fast pass walks the raw bytes — so a
// re-applied manifest costs a read, a hash and three table probes, an
// ALLOWED request is never decoded into a document at all, and its
// buffer returns to the pool when the upstream round trip completes.
// Only deny verdicts, cache-missed shadow/learn traffic, tap-equipped
// proxies, and constructs the scanners cannot vouch for take the classic
// decode + diagnostic path, whose verdicts and violation lists the raw
// path reproduces exactly (registry.ValidateRaw contract). ServeHTTP is
// the two steps back to back; a tier fronting several proxies
// (internal/plane) builds the Request itself, routes on it, and hands it
// to the owning replica's Serve.
//
// Identity is propagated upstream via the front-proxy headers
// (X-Forwarded-User/-Group) over an mTLS channel only the proxy can open,
// preserving Complete Mediation: the API server refuses direct client
// connections because only the proxy holds a client certificate.
//
// A proxy enforces one policy registry. The single-workload configuration
// (Config.Validator) remains supported and registers the validator as a
// cluster-wide wildcard policy; the multi-workload configuration
// (Config.Registry) resolves, per request, the most specific workload
// policy for the object's namespace and kind, and fails closed when no
// registered policy governs the request.
//
// Each workload carries a rollout mode (registry modes, learn →
// shadow → enforce): learn-mode requests are forwarded unvalidated and
// fed to the workload's policy miner, shadow-mode requests are validated
// against the candidate policy with the would-deny verdict recorded but
// never enforced, and enforce mode is the classic deny path. Config.Tap
// additionally streams every inspected request to a trace sink for
// offline mining. Audit callbacks (OnViolation, OnShadowViolation, Tap)
// can be moved off the request goroutine onto a bounded async ring with
// explicit drop accounting via Config.SinkBuffer.
package proxy

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/object"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/validator"
)

// ViolationRecord is one denied request, for auditing. It is the
// registry's per-workload record type; proxy-level denials that could not
// be attributed to a workload (undecodable bodies, unmatched requests)
// leave Workload empty.
type ViolationRecord = registry.Record

// Metrics aggregates proxy counters.
type Metrics struct {
	Requests  uint64
	Inspected uint64
	Denied    uint64
	// Shadowed counts would-deny verdicts recorded for shadow-mode
	// workloads (the requests themselves were forwarded).
	Shadowed uint64
	// RawAllowed counts inspected requests decided on the streaming
	// fast path (raw bytes, no decode), including body-hash cache hits.
	RawAllowed uint64
	// RawDenied counts inspected requests denied without decoding
	// (cached denials answered from raw bytes).
	RawDenied      uint64
	ValidationTime time.Duration
}

// Config configures the proxy.
type Config struct {
	// Upstream is the API server base URL, e.g. "https://127.0.0.1:6443".
	Upstream string
	// Transport carries requests upstream (holds the mTLS client config).
	// Defaults to http.DefaultTransport.
	Transport http.RoundTripper
	// Validator is a single cluster-wide workload policy. Exactly one of
	// Validator or Registry is required.
	Validator *validator.Validator
	// Registry supplies per-workload policies resolved per request; the
	// proxy denies requests no registered policy governs (fail closed).
	Registry *registry.Registry
	// CacheSize bounds the decision cache of the registry the proxy
	// builds for a single Validator (0 disables caching). Ignored when
	// Registry is set — configure the cache on the registry instead.
	CacheSize int
	// ProxyUser is the identity the proxy asserts to the upstream API
	// server when the channel is not mTLS (header authentication). It
	// must be listed in the API server's FrontProxyUsers. With mTLS the
	// proxy's client certificate CN carries the identity instead.
	ProxyUser string
	// DisableRawFastPath forces every inspected request through the
	// classic decode-first path. For ablation benchmarks (the e2e
	// experiment's decode baseline) and debugging; verdicts are
	// identical either way.
	DisableRawFastPath bool
	// SinkBuffer, when > 0, moves the OnViolation / OnShadowViolation /
	// Tap callbacks off the request goroutine onto a bounded async ring
	// of this capacity serviced by one background goroutine. A full
	// ring drops events (counted in SinkStats), never blocks a request.
	// Zero keeps the callbacks synchronous on the request path.
	SinkBuffer int
	// OnViolation, when non-nil, receives every denial record.
	OnViolation func(ViolationRecord)
	// OnShadowViolation, when non-nil, receives every would-deny record
	// of a workload in shadow mode (the request itself was forwarded).
	OnShadowViolation func(ViolationRecord)
	// Tap, when non-nil, receives every successfully decoded and
	// resolved inspected request — the live capture feeding offline
	// policy mining (internal/learn traces). Configuring a tap disables
	// the decode-free fast path: every inspected request is decoded so
	// the tap sees the object. With SinkBuffer > 0 the callback itself
	// still runs off the request goroutine.
	Tap func(workload, user, method, path string, obj object.Object)
	// Telemetry, when non-nil, records every decision (counter +
	// latency histogram per workload × verdict × path) and samples
	// decision traces into the hub. Recording is lock-free and
	// allocation-free; a nil hub costs one predictable branch.
	Telemetry *telemetry.Hub
}

// Proxy is the enforcement handler.
type Proxy struct {
	upstream  *url.URL
	transport http.RoundTripper
	proxyUser string
	registry  *registry.Registry
	// single names the implicit wildcard entry of a proxy built from
	// Config.Validator; SetValidator swaps that entry's policy.
	single     string
	disableRaw bool
	onViolate  func(ViolationRecord)
	onShadow   func(ViolationRecord)
	tap        func(workload, user, method, path string, obj object.Object)
	sink       *asyncSink
	telemetry  *telemetry.Hub

	violations *registry.BoundedLog
	requests   atomic.Uint64
	inspected  atomic.Uint64
	denied     atomic.Uint64
	shadowed   atomic.Uint64
	rawAllowed atomic.Uint64
	rawDenied  atomic.Uint64
	valNanos   atomic.Int64
}

// workloadName names the implicit registry entry for a bare validator.
func workloadName(v *validator.Validator) string {
	if v != nil && v.Workload != "" {
		return v.Workload
	}
	return "default"
}

// New builds a Proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Validator == nil && cfg.Registry == nil {
		return nil, fmt.Errorf("proxy: one of Config.Validator or Config.Registry is required")
	}
	if cfg.Validator != nil && cfg.Registry != nil {
		return nil, fmt.Errorf("proxy: Config.Validator and Config.Registry are mutually exclusive")
	}
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("proxy: Config.Upstream is required")
	}
	upstream, err := url.Parse(strings.TrimSuffix(cfg.Upstream, "/"))
	if err != nil {
		return nil, fmt.Errorf("proxy: Config.Upstream: %w", err)
	}
	p := &Proxy{
		upstream:   upstream,
		transport:  cfg.Transport,
		proxyUser:  cfg.ProxyUser,
		registry:   cfg.Registry,
		disableRaw: cfg.DisableRawFastPath,
		onViolate:  cfg.OnViolation,
		onShadow:   cfg.OnShadowViolation,
		tap:        cfg.Tap,
		telemetry:  cfg.Telemetry,
		violations: registry.NewBoundedLog(registry.MaxRecords),
	}
	if p.transport == nil {
		p.transport = http.DefaultTransport
	}
	if cfg.Validator != nil {
		p.registry = registry.New(registry.Config{CacheSize: cfg.CacheSize})
		p.single = workloadName(cfg.Validator)
		if _, err := p.registry.Register(p.single, registry.Selector{}, cfg.Validator); err != nil {
			return nil, err
		}
	}
	if cfg.SinkBuffer > 0 {
		p.sink = newAsyncSink(cfg.SinkBuffer, cfg.OnViolation, cfg.OnShadowViolation, cfg.Tap)
	}
	return p, nil
}

// SetValidator swaps the enforced policy atomically (policy updates
// without proxy restarts) on a proxy built from Config.Validator,
// replacing the implicit cluster-wide policy. A nil validator is
// ignored. On a registry-backed proxy it is a no-op: silently
// registering a cluster-wide wildcard would convert the documented
// fail-closed behavior into allow-by-one-policy — manage per-workload
// policies through Registry().Swap instead. The swap-or-register loop
// retries so a lost race against a concurrent SetValidator cannot
// silently drop the update.
func (p *Proxy) SetValidator(v *validator.Validator) {
	if v == nil || p.single == "" {
		return
	}
	for {
		if err := p.registry.Swap(p.single, v); err == nil {
			return
		}
		if _, err := p.registry.Register(p.single, registry.Selector{}, v); err == nil {
			return
		}
		// Another goroutine registered the entry between our Swap and
		// Register; the next Swap succeeds against it.
	}
}

// Registry exposes the proxy's policy registry for per-workload metrics,
// violation records, and live policy management.
func (p *Proxy) Registry() *registry.Registry { return p.registry }

// Telemetry exposes the proxy's telemetry hub (nil when the proxy was
// built without one).
func (p *Proxy) Telemetry() *telemetry.Hub { return p.telemetry }

// UnresolvedWorkload is the telemetry workload label for decisions the
// proxy could not attribute to a registered workload: undecodable
// bodies and requests no policy governs (fail-closed rejections).
const UnresolvedWorkload = "_unresolved"

// Violations returns a snapshot of all denial records.
func (p *Proxy) Violations() []ViolationRecord {
	return p.violations.Snapshot()
}

// ResetViolations clears the denial log.
func (p *Proxy) ResetViolations() {
	p.violations.Reset()
}

// Metrics returns a snapshot of the counters.
func (p *Proxy) Metrics() Metrics {
	return Metrics{
		Requests:       p.requests.Load(),
		Inspected:      p.inspected.Load(),
		Denied:         p.denied.Load(),
		Shadowed:       p.shadowed.Load(),
		RawAllowed:     p.rawAllowed.Load(),
		RawDenied:      p.rawDenied.Load(),
		ValidationTime: time.Duration(p.valNanos.Load()),
	}
}

// SinkStats reports the async sink's delivery accounting. Zero-valued
// when Config.SinkBuffer was 0 (synchronous callbacks).
func (p *Proxy) SinkStats() SinkStats {
	if p.sink == nil {
		return SinkStats{}
	}
	return p.sink.stats()
}

// FlushSinks waits until every event enqueued so far has been delivered
// or dropped, bounded by the timeout; it reports whether the sink fully
// drained. A no-op (true) for synchronous sinks.
func (p *Proxy) FlushSinks(timeout time.Duration) bool {
	if p.sink == nil {
		return true
	}
	return p.sink.flush(timeout)
}

// CloseSinks stops the async sink worker after draining queued events.
// Call after the proxy has stopped serving requests; safe to call more
// than once, and a no-op for synchronous sinks.
func (p *Proxy) CloseSinks() {
	if p.sink != nil {
		p.sink.close()
	}
}

// ServeHTTP implements http.Handler: read the request once, serve it.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := ReadRequest(r)
	p.Serve(w, r, &q)
}

// Serve is the enforcement point proper: inspect, validate, forward or
// deny a request whose front end has been built — by ServeHTTP, or by a
// tier's front door that routed on the same value and so spares the
// replica a second read, scan and decode. Serve consumes q. Every
// failure on the inspection path fails closed with its own audit-able
// outcome: unreadable bodies (mid-stream disconnects), oversized
// bodies, unsupported content types, and undecodable bodies each
// produce a denial record with a distinct reason and status code.
func (p *Proxy) Serve(w http.ResponseWriter, r *http.Request, q *Request) {
	p.requests.Add(1)
	user, groups := clientIdentity(r)
	if q.inspect {
		p.inspected.Add(1)
	}
	if q.failCode != 0 {
		p.deny(w, r, user, nil, "", "", q.failCode, []validator.Violation{{Reason: q.failReason}})
		q.Release()
		return
	}
	if q.inspect {
		start := time.Now()
		// tc is nil for all but 1/N decisions (telemetry sampling); every
		// method on a nil ctx is a no-op, so the stage marks cost nothing
		// on the unsampled hot path.
		tc := p.telemetry.Sample()
		d := p.decide(r, user, q, tc)

		// The one conclusion site: account the decision, then deny it or
		// fall through to forward.
		el := time.Since(start)
		p.valNanos.Add(int64(el))
		workload := UnresolvedWorkload
		if d.entry != nil {
			workload = d.entry.Workload()
		}
		p.telemetry.RecordDecision(workload, d.verdict, d.path, el)
		p.telemetry.RecordScan(q.memoed)
		denied := d.verdict == telemetry.VerdictDenied || d.verdict == telemetry.VerdictRejected
		// Guarded: ident's string conversions must not run (allocate) on
		// the unsampled fast path.
		if tc != nil || denied {
			kind, name := q.ident()
			tc.Finish(workload, d.verdict, d.path, kind, name)
			if denied {
				p.deny(w, r, user, d.entry, kind, name, http.StatusForbidden, d.violations)
				q.Release()
				return
			}
		}
		if d.verdict == telemetry.VerdictShadowed {
			p.recordShadow(r, user, d.entry, q.obj, d.violations)
			// Pre-enforcement traffic is trusted by definition of the
			// rollout, so a would-deny is a learning opportunity: feed it
			// back to the miner and let the controller publish the grown
			// candidate.
			if obs := d.entry.Observer(); obs != nil {
				obs.Observe(q.obj)
			}
		}
	}
	p.forward(w, r, user, groups, q)
}

// decision is the outcome of inspecting one request: the governing
// entry (nil when no policy could be attributed — fail-closed
// rejections), the verdict and pipeline path it is accounted under, and
// the violations a denial, rejection or shadowed would-deny reports.
type decision struct {
	entry      *registry.Entry
	verdict    telemetry.Verdict
	path       telemetry.Path
	violations []validator.Violation
}

// rejected is the fail-closed decision for a request no workload can be
// charged with.
func rejected(path telemetry.Path, reason string) decision {
	return decision{verdict: telemetry.VerdictRejected, path: path,
		violations: []validator.Violation{{Reason: reason}}}
}

// decide resolves the workload policy governing an inspected request
// and judges the request against it.
//
// Streaming fast path: requests are decided straight off the wire bytes
// whenever possible, for both encodings. The scanners succeeding
// guarantees the body decodes and the extracted routing fields equal
// the decoded accessors, so resolving before decoding is
// observationally identical to the classic order; ResolveRaw probes the
// registry's match trie on the scanned byte slices without
// materializing strings. Taps force the decode path (they consume the
// object); non-enforce modes and verdicts that need diagnostics decode
// after resolving (learn feeds the miner, shadow records diagnostics,
// an uncached denial lists its violations).
func (p *Proxy) decide(r *http.Request, user string, q *Request, tc *telemetry.TraceCtx) decision {
	raw := !p.disableRaw && p.tap == nil
	if raw {
		raw = q.scan()
		tc.Stage("scan")
	}
	path := telemetry.PathRaw
	if !raw {
		path = telemetry.PathDecoded
		_, err := q.decode()
		tc.Stage("decode")
		if err != nil {
			return rejected(path, "request body is not a valid Kubernetes object: "+err.Error())
		}
	}

	var entry *registry.Entry
	var found bool
	if raw && len(q.meta.Namespace) > 0 {
		entry, found = p.registry.ResolveRaw(q.meta.Namespace, q.meta.Kind)
	} else {
		entry, found = p.registry.Resolve(q.Target())
	}
	tc.Stage("resolve")
	if !found {
		namespace, kind := q.Target()
		return rejected(path, fmt.Sprintf("no KubeFence policy registered for namespace %q kind %q", namespace, kind))
	}

	if raw {
		if entry.Mode() == registry.ModeEnforce {
			vs, decided := p.registry.ValidateRawHashed(entry, q.body, q.sum(), q.meta, q.format == formatYAML)
			if decided {
				tc.Stage("raw-match")
				if len(vs) > 0 {
					p.rawDenied.Add(1)
					return decision{entry: entry, verdict: telemetry.VerdictDenied, path: path, violations: vs}
				}
				p.rawAllowed.Add(1)
				return decision{entry: entry, verdict: telemetry.VerdictAllowed, path: path}
			}
		}
		path = telemetry.PathDecoded
		if _, err := q.decode(); err != nil {
			// Unreachable while the scanners keep their contract; fail
			// closed if one ever breaks it.
			return rejected(path, "request body is not a valid Kubernetes object: "+err.Error())
		}
		tc.Stage("decode")
	}
	obj := q.obj
	if p.tap != nil {
		p.emitTap(entry.Workload(), user, r.Method, r.URL.Path, obj)
	}

	// The workload's rollout mode decides what "validate" means: learn
	// feeds the miner and forwards, shadow records the verdict and
	// forwards, enforce denies violations (the classic path).
	d := decision{entry: entry, verdict: telemetry.VerdictAllowed, path: path}
	switch entry.Mode() {
	case registry.ModeLearn:
		entry.ObserveLearn(obj)
		d.verdict = telemetry.VerdictLearned
	case registry.ModeShadow:
		// A clean shadow validation is an allowed decision; only a
		// would-deny records as shadowed.
		if d.violations, _ = p.registry.ShadowValidateHashed(entry, q.body, q.sum(), obj); len(d.violations) > 0 {
			d.verdict = telemetry.VerdictShadowed
		}
	default: // registry.ModeEnforce
		if d.violations = p.registry.ValidateHashed(entry, q.body, q.sum(), obj); len(d.violations) > 0 {
			d.verdict = telemetry.VerdictDenied
		}
	}
	tc.Stage("validate")
	return d
}

// clientIdentity extracts the caller identity the same way the API server
// would have (client certificate CN, else X-Remote-User).
func clientIdentity(r *http.Request) (string, []string) {
	if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
		leaf := r.TLS.PeerCertificates[0]
		return leaf.Subject.CommonName, leaf.Subject.Organization
	}
	if h := r.Header.Get("X-Remote-User"); h != "" {
		return h, r.Header.Values("X-Remote-Group")
	}
	return "system:anonymous", nil
}

// emitViolation delivers a denial record to the violation sink —
// asynchronously when the proxy has an async sink, inline otherwise.
func (p *Proxy) emitViolation(rec ViolationRecord) {
	if p.onViolate == nil {
		return
	}
	if p.sink != nil {
		p.sink.enqueue(sinkEvent{kind: sinkViolation, rec: rec})
		return
	}
	p.onViolate(rec)
}

func (p *Proxy) emitShadow(rec ViolationRecord) {
	if p.onShadow == nil {
		return
	}
	if p.sink != nil {
		p.sink.enqueue(sinkEvent{kind: sinkShadow, rec: rec})
		return
	}
	p.onShadow(rec)
}

func (p *Proxy) emitTap(workload, user, method, path string, obj object.Object) {
	if p.tap == nil {
		return
	}
	if p.sink != nil {
		p.sink.enqueue(sinkEvent{kind: sinkTap,
			tap: tapEvent{workload: workload, user: user, method: method, path: path, obj: obj}})
		return
	}
	p.tap(workload, user, method, path, obj)
}

// recordShadow logs a would-deny verdict for a shadow-mode workload:
// the record lands in the entry's shadow log (never the denial log or
// the denied metric — nothing was denied) and the shadow callback.
func (p *Proxy) recordShadow(r *http.Request, user string,
	entry *registry.Entry, obj object.Object, violations []validator.Violation) {
	p.shadowed.Add(1)
	rec := ViolationRecord{
		Time:       time.Now(),
		User:       user,
		Method:     r.Method,
		RequestURI: r.URL.Path,
		Kind:       obj.Kind(),
		Name:       obj.Name(),
		Violations: violations,
	}
	entry.RecordShadowViolation(rec)
	rec.Workload = entry.Workload()
	p.emitShadow(rec)
}

// deny fails a request closed with the given status code (403 for a
// request that violates policy), recording an audit-able denial record
// either way. Only policy rejections (403) count toward the denied
// metric: transport-level failures (unreadable, oversized, or
// unparseable-typed bodies) would otherwise skew the experiments'
// denial rates.
func (p *Proxy) deny(w http.ResponseWriter, r *http.Request, user string,
	entry *registry.Entry, kind, name string, code int, violations []validator.Violation) {
	if code == http.StatusForbidden {
		p.denied.Add(1)
	}
	rec := ViolationRecord{
		Time:       time.Now(),
		User:       user,
		Method:     r.Method,
		RequestURI: r.URL.Path,
		Kind:       kind,
		Name:       name,
		Violations: violations,
	}
	if entry != nil {
		rec.Workload = entry.Workload()
		entry.RecordViolation(rec)
	}
	p.violations.Append(rec)
	p.emitViolation(rec)

	msgs := make([]string, len(violations))
	for i, v := range violations {
		msgs[i] = v.String()
	}
	// Policy violations and transport-level rejections carry distinct
	// Status reasons so clients and audit sinks can tell them apart.
	reason, message := "KubeFencePolicyViolation", "request blocked by KubeFence policy: "
	if code != http.StatusForbidden {
		reason, message = "KubeFenceRequestRejected", "request rejected by KubeFence enforcement point: "
	}
	body := denyStatus{
		Code:    code,
		Details: denyDetails{Violations: msgs},
		Kind:    "Status",
		Message: message + strings.Join(msgs, "; "),
		Reason:  reason,
		Status:  "Failure",
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(&body)
}

// denyStatus is the Kubernetes Status body of a denial. The fields are
// declared in sorted key order: the wire bytes are those of the
// map[string]any it replaced (clients and golden files see no change),
// without building two maps and sorting their keys per denial.
type denyStatus struct {
	Code    int         `json:"code"`
	Details denyDetails `json:"details"`
	Kind    string      `json:"kind"`
	Message string      `json:"message"`
	Reason  string      `json:"reason"`
	Status  string      `json:"status"`
}

type denyDetails struct {
	Violations []string `json:"violations"`
}

// forward relays the request upstream, asserting the original caller via
// front-proxy headers. The upstream URL is the configured base with the
// inbound path and query copied onto it field by field — escaped form
// included, so upstream is asked for exactly the resource the client
// named ("n%3Fwatch=1" stays a name, not a query). Ownership of the
// pooled body buffer transfers to the upstream request: the transport's
// Body.Close returns it to the pool.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, user string,
	groups []string, q *Request) {
	u := *p.upstream
	u.Path = p.upstream.Path + r.URL.Path
	if r.URL.RawPath != "" || p.upstream.RawPath != "" {
		u.RawPath = p.upstream.EscapedPath() + r.URL.EscapedPath()
	}
	u.RawQuery = r.URL.RawQuery
	// The literal stays on the stack; WithContext makes the one copy
	// that goes upstream.
	req := (&http.Request{
		Method:     r.Method,
		URL:        &u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
		Host:       u.Host,
	}).WithContext(r.Context())
	if len(q.body) > 0 {
		body := &pooledBody{}
		body.Reset(q.body)
		body.buf.Store(q.buf)
		q.buf = nil
		req.Body, req.ContentLength = body, int64(len(q.body))
	} else {
		// Nothing upstream will read; recycle the buffer immediately.
		q.Release()
	}
	for k, vs := range r.Header {
		// Strip identity headers a client might try to smuggle.
		if k == "X-Forwarded-User" || k == "X-Forwarded-Group" || k == "X-Remote-User" || k == "X-Remote-Group" {
			continue
		}
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	req.Header.Set("X-Forwarded-User", user)
	for _, g := range groups {
		req.Header.Add("X-Forwarded-Group", g)
	}
	if p.proxyUser != "" {
		req.Header.Set("X-Remote-User", p.proxyUser)
	}

	resp, err := p.transport.RoundTrip(req)
	if err != nil {
		http.Error(w, "upstream error: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
