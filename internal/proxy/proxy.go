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
// and, on first use, its tag and its routing metadata (kind, namespace,
// name). The tag is a keyed 128-bit MAC of the body (registry.Tag:
// AES-GMAC under a per-process secret key; it resists chosen-body
// collisions only while no tag leaves the process, so none is ever
// printed). It comes first and keys everything repeatable: a
// process-wide scan memo answers the metadata scan of any body scanned
// before (scanmemo.go), so only a body's first appearance
// is scanned (compile.ScanRawMeta / compile.ScanRawYAMLMeta), and only
// as far as its prologue — apiVersion, kind and metadata — with at most
// one decode as the fallback. Serve then decides: the policy is
// resolved through the registry's match trie without materializing
// strings (ResolveRaw), the workload's decision-cache shard (a
// second-chance cache) is probed with the same tag, and on a miss the
// compiled program judges the raw bytes, all of them, in one walk — so
// a re-applied manifest costs a read, a tag and three table probes that
// take no lock, a never-seen one is walked once
// past its prologue, an ALLOWED request is never decoded into a document
// at all, and its buffer returns to the pool when the upstream round
// trip completes. A violation is found by the same walk: it records each
// one and walks on, and the list it ends with is the one the decode path
// would produce, so a denial is cached, recorded and answered without a
// decode. Enforce and shadow mode are judged alike; the mode decides
// only whether a violation denies or is recorded. Only learn-mode
// traffic, tap-equipped proxies, workloads with no policy yet and
// constructs the walkers cannot judge byte for byte take the classic
// decode + diagnostic path, whose verdicts and violation lists the raw
// path reproduces exactly (registry.ValidateRawScanned contract).
// ServeHTTP is the two steps back to back; a tier fronting several proxies
// (internal/plane) builds the Request itself, routes on it, and hands it
// to the owning replica's Serve.
//
// An admitted request is forwarded in a recycled frame (forward.go): the
// upstream http.Request, its URL and its header map live in one pooled
// upstreamCall, inbound header values are shared rather than copied, and
// the pooled body buffer rides along, so a re-applied manifest is
// admitted and forwarded without allocating anything but its body
// wrapper. The frame is recycled under the http.RoundTripper contract —
// only once forward has closed the response body and the transport has
// closed the request body, never after a failed round trip — which is
// the contract Config.Transport must keep. Hop-by-hop headers stay on
// their hop in both directions, and identity headers a client sends are
// stripped under any spelling of their names.
//
// Identity is propagated upstream via the front-proxy headers
// (X-Forwarded-User/-Group) over an mTLS channel only the proxy can open,
// preserving Complete Mediation: the API server refuses direct client
// connections because only the proxy holds a client certificate.
//
// A proxy enforces one policy registry (Config.Registry): it resolves,
// per request, the most specific workload policy for the object's
// namespace and kind, and fails closed when no registered policy governs
// the request. The paper's single-workload enforcement point is a
// one-entry registry whose policy is registered with a zero Selector,
// which matches every request.
//
// Each workload carries a rollout mode (registry modes, learn →
// shadow → enforce), read once per request: learn-mode requests are
// forwarded unvalidated and fed to the workload's policy miner,
// shadow-mode requests get the enforce-mode verdict, by the same walk,
// with a would-deny recorded but never enforced, and enforce mode
// denies it. Config.Tap additionally streams every inspected request to
// a trace sink for offline mining. Audit callbacks (OnViolation,
// OnShadowViolation, Tap) can be moved off the request goroutine onto a
// bounded async ring with explicit drop accounting via
// Config.SinkBuffer.
package proxy

import (
	"encoding/json"
	"fmt"
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

// ViolationRecord is one denied (or, for a shadow-mode workload,
// would-deny) request, for auditing. Denials that could not be attributed
// to a workload (undecodable bodies, unmatched requests) leave Workload
// empty.
type ViolationRecord struct {
	Time       time.Time
	Workload   string
	User       string
	Method     string
	RequestURI string
	Kind       string
	Name       string
	Violations []validator.Violation
}

// Metrics aggregates proxy counters.
type Metrics struct {
	Requests  uint64
	Inspected uint64
	Denied    uint64
	// Shadowed counts would-deny verdicts recorded for shadow-mode
	// workloads (the requests themselves were forwarded), on either path.
	Shadowed uint64
	// RawAllowed counts inspected requests allowed on the streaming fast
	// path (raw bytes, no decode), including body-tag cache hits, in
	// enforce or shadow mode.
	RawAllowed uint64
	// RawDenied counts inspected requests denied without decoding:
	// judged on raw bytes, cached or diagnosed.
	RawDenied      uint64
	ValidationTime time.Duration
}

// Add returns the counter-wise sum of m and o.
func (m Metrics) Add(o Metrics) Metrics {
	return Metrics{
		Requests:       m.Requests + o.Requests,
		Inspected:      m.Inspected + o.Inspected,
		Denied:         m.Denied + o.Denied,
		Shadowed:       m.Shadowed + o.Shadowed,
		RawAllowed:     m.RawAllowed + o.RawAllowed,
		RawDenied:      m.RawDenied + o.RawDenied,
		ValidationTime: m.ValidationTime + o.ValidationTime,
	}
}

// Config configures the proxy.
type Config struct {
	// Upstream is the API server base URL, e.g. "https://127.0.0.1:6443".
	Upstream string
	// Transport carries requests upstream (holds the mTLS client config).
	// Defaults to http.DefaultTransport. The proxy recycles each upstream
	// request once its round trip is over, so Transport must keep the
	// http.RoundTripper contract to the letter, as net/http's transports
	// do: read the request's fields only until the response body is
	// closed, and the request body only until its first Close (a request
	// whose RoundTrip returned an error is never recycled). Request
	// bodies are not replayable (GetBody is nil).
	Transport http.RoundTripper
	// Registry supplies per-workload policies resolved per request
	// (required); the proxy denies requests no registered policy governs
	// (fail closed). Its Config sizes the decision cache.
	Registry *registry.Registry
	// ProxyUser is the identity the proxy asserts to the upstream API
	// server when the channel is not mTLS (header authentication). It
	// must be listed in the API server's FrontProxyUsers. With mTLS the
	// proxy's client certificate CN carries the identity instead.
	ProxyUser string
	// DisableRawFastPath forces every inspected request through the
	// classic decode-first path: the reference side of the raw-vs-classic
	// equivalence tests, and a debugging aid. Verdicts are identical
	// either way.
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
	upstream   *url.URL
	transport  http.RoundTripper
	proxyUser  string
	registry   *registry.Registry
	disableRaw bool
	onViolate  func(ViolationRecord)
	onShadow   func(ViolationRecord)
	tap        func(workload, user, method, path string, obj object.Object)
	sink       *asyncSink
	telemetry  *telemetry.Hub
	violations *telemetry.Ring[ViolationRecord]

	// counts is written by every request, each core in a cell of its own
	// and off the lines of the read-only fields above.
	counts telemetry.Striped[proxyCounts]
}

// proxyCounts is one stripe of the counters Metrics sums.
type proxyCounts struct {
	requests   atomic.Uint64
	inspected  atomic.Uint64
	denied     atomic.Uint64
	shadowed   atomic.Uint64
	rawAllowed atomic.Uint64
	rawDenied  atomic.Uint64
	valNanos   atomic.Int64
}

// maxRecords bounds the proxy's denial records so a hostile client
// cannot grow proxy memory without bound; the newest records are kept.
const maxRecords = 1024

// New builds a Proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("proxy: Config.Registry is required")
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
		violations: telemetry.NewRing[ViolationRecord](maxRecords),
	}
	if p.transport == nil {
		p.transport = http.DefaultTransport
	}
	if cfg.SinkBuffer > 0 {
		p.sink = newAsyncSink(cfg.SinkBuffer, cfg.OnViolation, cfg.OnShadowViolation, cfg.Tap)
	}
	return p, nil
}

// Registry exposes the proxy's policy registry for per-workload metrics
// and live policy management.
func (p *Proxy) Registry() *registry.Registry { return p.registry }

// Telemetry exposes the proxy's telemetry hub (nil when the proxy was
// built without one).
func (p *Proxy) Telemetry() *telemetry.Hub { return p.telemetry }

// UnresolvedWorkload is the telemetry workload label for decisions the
// proxy could not attribute to a registered workload: unreadable,
// oversized, mistyped and undecodable bodies and requests no policy
// governs (fail-closed rejections).
const UnresolvedWorkload = "_unresolved"

// Violations returns a snapshot of the proxy's newest denial records
// (at most 1 024), across all workloads, oldest first, exact within that
// window (telemetry.Ring). A workload that floods denials can push the
// others' records out of it; the complete trail is the OnViolation sink.
func (p *Proxy) Violations() []ViolationRecord {
	return p.violations.Snapshot()
}

// Metrics returns a snapshot of the counters: exact once requests
// quiesce, a sum taken while they run otherwise.
func (p *Proxy) Metrics() Metrics {
	var m Metrics
	p.counts.Each(func(c *proxyCounts) {
		m = m.Add(Metrics{
			Requests:       c.requests.Load(),
			Inspected:      c.inspected.Load(),
			Denied:         c.denied.Load(),
			Shadowed:       c.shadowed.Load(),
			RawAllowed:     c.rawAllowed.Load(),
			RawDenied:      c.rawDenied.Load(),
			ValidationTime: time.Duration(c.valNanos.Load()),
		})
	})
	return m
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
// drained. It sleeps on the sink's drained signal, not a poll. A no-op
// (true) for synchronous sinks.
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
// produce a denial record with a distinct reason and status code, and
// each is counted as a rejected decision of UnresolvedWorkload.
func (p *Proxy) Serve(w http.ResponseWriter, r *http.Request, q *Request) {
	c := p.counts.Local()
	c.requests.Add(1)
	user, groups := clientIdentity(r)
	if q.inspect {
		c.inspected.Add(1)
	}
	if q.failCode != 0 {
		// Decided off the request alone, before any inspection ran.
		p.telemetry.RecordDecision(UnresolvedWorkload, telemetry.VerdictRejected, telemetry.PathRaw, 0)
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
		c.valNanos.Add(int64(el))
		if d.path == telemetry.PathRaw {
			switch d.verdict {
			case telemetry.VerdictAllowed:
				c.rawAllowed.Add(1)
			case telemetry.VerdictDenied:
				c.rawDenied.Add(1)
			}
		}
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
				c.denied.Add(1)
				p.deny(w, r, user, d.entry, kind, name, http.StatusForbidden, d.violations)
				q.Release()
				return
			}
		}
		if d.verdict == telemetry.VerdictShadowed {
			c.shadowed.Add(1)
			p.recordShadow(r, user, d.entry, q, d.violations)
			// Pre-enforcement traffic is trusted by definition of the
			// rollout, so a would-deny is a learning opportunity: feed it
			// back to the miner and let the controller publish the grown
			// candidate. A would-deny judged on the wire decodes here, and
			// only for a miner; a body a walk judged always decodes.
			if obs := d.entry.Observer(); obs != nil {
				if obj, err := q.decode(); err == nil {
					obs.Observe(obj)
				}
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

// undecodable is the rejection of a body the decoder refuses.
func undecodable(err error) decision {
	return rejected(telemetry.PathDecoded, "request body is not a valid Kubernetes object: "+err.Error())
}

// decide resolves the workload policy governing an inspected request
// and judges the request against it.
//
// Streaming fast path: requests are decided straight off the wire bytes
// whenever possible, for both encodings. A successful scan guarantees
// that the prologue is well formed and that, if the body decodes, the
// extracted routing fields equal the decoded accessors — so resolving
// before decoding is observationally identical to the classic order for
// every body the classic path accepts. Whether it does is decided
// before any verdict: the raw match walks every byte and vouches only
// for a body that decodes, a cached decision was made on one, and every
// other outcome — including a request that resolves to no policy —
// decodes first, so an undecodable body is rejected as such, exactly as
// on the classic path. ResolveRaw probes the registry's match trie on
// the scanned byte slices without materializing strings.
//
// The workload's mode, read once, decides only what the verdict means,
// never how it is reached: enforce and shadow are judged by the same
// walk and the same cache. Learn mode and taps decode, because they
// consume the object (learn feeds the miner, a tap streams it);
// workloads with no policy yet and bodies the walk cannot judge decode
// after resolving. A decision off the raw bytes — a vouch, a cached
// verdict or a diagnosed violation — is a PathRaw decision named by the
// scanned prologue (Request.ident).
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
			return undecodable(err)
		}
	}

	entry, found := p.registry.ResolveRaw(q.TargetBytes())
	tc.Stage("resolve")
	if !found {
		if raw {
			if _, err := q.decode(); err != nil {
				return undecodable(err)
			}
		}
		namespace, kind := q.Target()
		return rejected(path, fmt.Sprintf("no KubeFence policy registered for namespace %q kind %q",
			validator.Bounded(namespace), validator.Bounded(kind)))
	}

	mode := entry.Mode()
	var vs []validator.Violation
	decided := false
	// A workload with no policy yet fails closed on the decode path,
	// where an undecodable body is rejected as such first.
	if raw && mode != registry.ModeLearn && entry.Program() != nil {
		vs, decided = p.registry.ValidateRawHashed(entry, mode, q.body, q.tag(), q.meta, q.format == formatYAML)
	}
	switch {
	case decided && len(vs) > 0:
		tc.Stage("raw-diagnose")
	case decided:
		tc.Stage("raw-match")
	default:
		path = telemetry.PathDecoded
		if raw {
			if _, err := q.decode(); err != nil {
				return undecodable(err)
			}
			tc.Stage("decode")
		}
		p.emitTap(entry.Workload(), user, r.Method, r.URL.Path, q.obj)
		if mode == registry.ModeLearn {
			entry.ObserveLearn(q.obj)
		} else {
			vs = p.registry.ValidateHashed(entry, mode, q.body, q.tag(), q.obj)
		}
		tc.Stage("validate")
	}

	// The one place a verdict gets its meaning: learn observed the
	// object, enforce denies a violation, shadow records it and forwards.
	d := decision{entry: entry, verdict: telemetry.VerdictAllowed, path: path, violations: vs}
	switch {
	case mode == registry.ModeLearn:
		d.verdict = telemetry.VerdictLearned
	case len(vs) == 0:
	case mode == registry.ModeShadow:
		d.verdict = telemetry.VerdictShadowed
	default:
		d.verdict = telemetry.VerdictDenied
	}
	return d
}

// clientIdentity extracts the caller identity the same way the API server
// would have (client certificate CN, else X-Remote-User).
//
// The headers are read by literal key: Header.Get and Header.Values
// canonicalize only the key they are asked for, and these literals are
// already canonical, so the reads return what Get and Values return
// without canonicalizing a key on every request.
func clientIdentity(r *http.Request) (string, []string) {
	if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
		leaf := r.TLS.PeerCertificates[0]
		return leaf.Subject.CommonName, leaf.Subject.Organization
	}
	if users := r.Header["X-Remote-User"]; len(users) > 0 && users[0] != "" {
		return users[0], r.Header["X-Remote-Group"]
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

// newRecord is the audit record of a denied or would-deny request: kind
// and name come from the body and user and path from the request line
// and headers, so all four are the client's to size and are cut by
// validator.Bounded like a violation's Got; a policy's list comes from
// the registry, which cuts it to registry.MaxViolations. entry is nil
// for a denial no workload can be charged with.
func newRecord(r *http.Request, user string, entry *registry.Entry,
	kind, name string, violations []validator.Violation) ViolationRecord {
	rec := ViolationRecord{
		Time:       time.Now(),
		User:       validator.Bounded(user),
		Method:     r.Method,
		RequestURI: validator.Bounded(r.URL.Path),
		Kind:       validator.Bounded(kind),
		Name:       validator.Bounded(name),
		Violations: violations,
	}
	if entry != nil {
		rec.Workload = entry.Workload()
	}
	return rec
}

// recordShadow hands a shadow-mode workload's would-deny record to the
// shadow callback; nothing was denied, so the denial log is not
// touched. Serve counts it.
func (p *Proxy) recordShadow(r *http.Request, user string,
	entry *registry.Entry, q *Request, violations []validator.Violation) {
	kind, name := q.ident()
	p.emitShadow(newRecord(r, user, entry, kind, name, violations))
}

// deny fails a request closed with the given status code (403 for a
// request that violates policy), recording an audit-able denial record
// either way. Serve counts only policy rejections (403) toward the
// denied metric, at its conclusion site: transport-level failures
// (unreadable, oversized, or unparseable-typed bodies) would otherwise
// skew the experiments' denial rates. The registry counts its own
// workload's denials.
func (p *Proxy) deny(w http.ResponseWriter, r *http.Request, user string,
	entry *registry.Entry, kind, name string, code int, violations []validator.Violation) {
	rec := newRecord(r, user, entry, kind, name, violations)
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
