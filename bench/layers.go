package main

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/object"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Shape of the traced run. A run of --seconds S spends referenceShare
// of S on the untraced reference, busyShare of S on the plane under
// publishes, and fixed work on the replay and the probes.
const (
	tracedRequests   = 20000 // requests the replay sends with spans on
	referenceShare   = 0.15
	busyShare        = 0.10
	allocBatch       = 2000 // requests behind each allocation count
	probePasses      = 21   // timed passes behind each probe
	probeAttacks     = 1000 // attacks behind the denial and decode probes
	probeBatch       = 2000 // calls per pass of the fixed-cost probes
	swapProbes       = 128  // individually timed re-publishes
	overheadMinTrace = 5000 // traced requests below which the p50 comparison is not judged
)

// prober times each layer's public calls over the fleet's own corpus,
// on a proxy front of its own. A probe is timed per pass over its items
// and reported as the median pass's mean per item, so calls of a few
// tens of ns are not drowned by the clock. Probes do not depend on the
// workload being traced.
type prober struct {
	in     *inputs
	front  *front
	cal    *calibrator
	timer  float64
	passes int
	m      map[string]float64
	sink   int // keeps results alive so calls are not optimised away
	stamps uint64
}

func (p *prober) perItem(n int, prep, pass func()) float64 {
	per := make([]float64, p.passes)
	for i := range per {
		if prep != nil {
			prep()
		}
		slow := p.cal.recent()
		start := time.Now()
		pass()
		per[i] = (float64(time.Since(start)) - p.timer) / float64(n) / slow
	}
	return median(per)
}

// each is for calls long enough to time one by one: it reports the
// median call at reference speed.
func (p *prober) each(n int, call func(i int) error) (float64, error) {
	ns := make([]float64, n)
	for i := range ns {
		slow := p.cal.recent()
		start := time.Now()
		if err := call(i); err != nil {
			return 0, err
		}
		ns[i] = (float64(time.Since(start)) - p.timer) / slow
	}
	return median(ns), nil
}

// allocsPer counts heap allocations per call over a batch; only this
// goroutine runs meanwhile.
func allocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// scanned is one body the wire's scanner vouched for, with what the
// registry resolved it to.
type scanned struct {
	body  []byte
	stamp int
	meta  compile.RawMeta
	entry *registry.Entry
	prog  *compile.Program
}

func (p *prober) resolve(r *request, meta compile.RawMeta) (*registry.Entry, bool) {
	reg := p.front.proxy.Registry()
	if len(meta.Namespace) > 0 {
		return reg.ResolveRaw(meta.Namespace, meta.Kind)
	}
	return reg.Resolve(pathNamespace(r.url.Path), string(meta.Kind))
}

// wire probes the scanner and the streaming matcher of one encoding
// and returns the bodies the matcher vouched for.
func (p *prober) wire(name string, reqs []request) []scanned {
	scan, match := compile.ScanRawMeta, (*compile.Program).MatchRawScanned
	if name == "yaml" {
		scan, match = compile.ScanRawYAMLMeta, (*compile.Program).MatchRawYAMLScanned
	}
	p.m["compile.scan_"+name+"_ns"] = p.perItem(len(reqs), nil, func() {
		for i := range reqs {
			if _, ok := scan(reqs[i].body); ok {
				p.sink++
			}
		}
	})
	var items []scanned
	kb := 0.0
	for i := range reqs {
		r := &reqs[i]
		meta, ok := scan(r.body)
		if !ok {
			continue
		}
		entry, found := p.resolve(r, meta)
		if !found {
			continue
		}
		items = append(items, scanned{body: r.body, stamp: r.stamp, meta: meta, entry: entry, prog: entry.Program()})
		kb += float64(len(r.body)) / 1024
	}
	var vouched []scanned
	matchNs := p.perItem(len(items), nil, func() {
		vouched = vouched[:0]
		for _, it := range items {
			if match(it.prog, it.meta, it.body) {
				vouched = append(vouched, it)
			}
		}
	})
	p.m["compile.match_"+name+"_ns"] = matchNs
	p.m["compile.match_"+name+"_ns_per_kb"] = matchNs * float64(len(items)) / kb
	p.m["compile.vouch_share_"+name] = float64(len(vouched)) / float64(len(reqs))
	if name == "json" {
		p.m["compile.match_allocs"] = allocsPer(len(items), func(i int) {
			if match(items[i].prog, items[i].meta, items[i].body) {
				p.sink++
			}
		})
	}
	return vouched
}

// restamp gives every body a hash the decision cache has not seen.
func (p *prober) restamp(bodies [][]byte, offsets []int) {
	for i, b := range bodies {
		p.stamps++
		stamp(b, offsets[i], 7e15+p.stamps)
	}
}

// registryProbes times the registry's raw and decoded entry points.
func (p *prober) registryProbes(vouched []scanned) error {
	reg := p.front.proxy.Registry()
	p.m["registry.resolve_ns"] = p.perItem(len(vouched), nil, func() {
		for _, it := range vouched {
			if _, ok := reg.ResolveRaw(it.meta.Namespace, it.meta.Kind); ok {
				p.sink++
			}
		}
	})
	// The first pass fills the cache with the bodies as generated; the
	// timed passes are all hits.
	validate := func(items []scanned) func() {
		return func() {
			for _, it := range items {
				if _, decided := reg.ValidateRawScanned(it.entry, it.body, it.meta); decided {
					p.sink++
				}
			}
		}
	}
	validate(vouched)()
	p.m["registry.cache_hit_ns"] = p.perItem(len(vouched), nil, validate(vouched))

	// Misses: private copies restamped before every pass, so each call
	// hashes, misses, matches and inserts (evicting once the shard is full).
	fresh := make([]scanned, len(vouched))
	bodies, offsets := make([][]byte, len(vouched)), make([]int, len(vouched))
	for i, it := range vouched {
		bodies[i], offsets[i] = append([]byte(nil), it.body...), it.stamp
		meta, ok := compile.ScanRawMeta(bodies[i])
		if !ok {
			return fmt.Errorf("probe: copy of a scanned body no longer scans")
		}
		fresh[i] = scanned{body: bodies[i], meta: meta, entry: it.entry}
	}
	p.m["registry.cache_miss_ns"] = p.perItem(len(fresh), func() { p.restamp(bodies, offsets) }, validate(fresh))
	return nil
}

// decodedProbes times what a request that leaves the fast path pays:
// the decoders over the benign corpus, and the diagnostic engine and
// Registry.Validate over decoded attacks.
func (p *prober) decodedProbes() error {
	reg := p.front.proxy.Registry()
	parse := func(reqs []request, decode func([]byte) (object.Object, error)) func(i int) {
		return func(i int) {
			if _, err := decode(reqs[i].body); err == nil {
				p.sink++
			}
		}
	}
	all := func(n int, fn func(i int)) func() {
		return func() {
			for i := 0; i < n; i++ {
				fn(i)
			}
		}
	}
	parseJSON, parseYAML := parse(p.in.json, object.ParseJSON), parse(p.in.yaml, object.ParseManifest)
	p.m["object.parse_json_ns"] = p.perItem(len(p.in.json), nil, all(len(p.in.json), parseJSON))
	p.m["object.parse_json_allocs"] = allocsPer(len(p.in.json), parseJSON)
	p.m["yaml.parse_ns"] = p.perItem(len(p.in.yaml), nil, all(len(p.in.yaml), parseYAML))
	p.m["yaml.parse_allocs"] = allocsPer(len(p.in.yaml), parseYAML)

	type decoded struct {
		obj   object.Object
		entry *registry.Entry
	}
	var objs []decoded
	var bodies [][]byte
	var offsets []int
	for i := range p.in.attacks {
		r := &p.in.attacks[i]
		if r.yaml || len(objs) == probeAttacks {
			continue
		}
		obj, err := object.ParseJSON(r.body)
		if err != nil {
			return fmt.Errorf("probe: attack body does not decode: %w", err)
		}
		namespace := obj.Namespace()
		if namespace == "" {
			namespace = pathNamespace(r.url.Path)
		}
		entry, found := reg.Resolve(namespace, obj.Kind())
		if !found {
			continue
		}
		objs = append(objs, decoded{obj, entry})
		bodies, offsets = append(bodies, append([]byte(nil), r.body...)), append(offsets, r.stamp)
	}
	exec := func(i int) { p.sink += len(objs[i].entry.Program().Validate(objs[i].obj)) }
	validate := func(i int) { p.sink += len(reg.Validate(objs[i].entry, bodies[i], objs[i].obj)) }
	restamp := func() { p.restamp(bodies, offsets) }
	p.m["compile.exec_ns"] = p.perItem(len(objs), nil, all(len(objs), exec))
	p.m["registry.validate_decoded_ns"] = p.perItem(len(objs), restamp, all(len(objs), validate))
	restamp()
	p.m["registry.validate_allocs"] = allocsPer(len(objs), validate)
	return nil
}

// frontProbes times whole requests through the front's proxy: the bare
// forwarding floor and a denial.
func (p *prober) frontProbes() error {
	c := newClients(p.front, &traffic{benign: p.in.json}, 1)[0]
	get := &request{method: http.MethodGet, header: http.Header{"X-Remote-User": {"operator:nginx"}},
		url: &url.URL{Scheme: "http", Host: "kubefence.invalid", Path: "/api/v1/namespaces/nginx/pods"}}
	bad := 0
	p.m["proxy.passthrough_ns"] = p.perItem(probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			if status, _ := c.do(p.front, get, nil); status != http.StatusOK {
				bad++
			}
		}
	})
	// Stamping is a copy of a few KB before a call of ~100 us.
	var scratch []byte
	denyNs, _ := p.each(min(probeAttacks, len(p.in.attacks)), func(i int) error {
		r := &p.in.attacks[i]
		p.stamps++
		scratch = stampInto(scratch, r, 7e15+p.stamps)
		if status, _ := c.do(p.front, r, scratch); status != http.StatusForbidden {
			bad++
		}
		return nil
	})
	p.m["proxy.deny_ns"] = denyNs
	if bad > 0 {
		return fmt.Errorf("probe: %d passthrough or denial requests got the wrong status", bad)
	}
	return nil
}

// controlProbes times the control-plane calls: compile and publish.
func (p *prober) controlProbes() error {
	reg := p.front.proxy.Registry()
	compileNs, err := p.each(len(p.front.policies), func(i int) error {
		_, err := compile.Compile(p.front.policies[i])
		return err
	})
	if err != nil {
		return err
	}
	swapNs, err := p.each(swapProbes, func(i int) error {
		t := p.in.swapOrder[i%len(p.in.swapOrder)]
		return reg.Swap(p.front.names[t], p.front.policies[t])
	})
	if err != nil {
		return err
	}
	p.m["compile.compile_ns"] = compileNs
	p.m["registry.swap_ns"] = swapNs

	hub := p.front.proxy.Telemetry()
	p.m["telemetry.record_ns"] = p.perItem(probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			hub.RecordDecision(p.front.names[i%len(p.front.names)], telemetry.VerdictAllowed, telemetry.PathRaw,
				time.Duration(5000+i))
		}
	})
	return nil
}

// upstreamProbe times one round trip to the stub upstream on a
// transport like the socket front's proxy's, body read included.
func (p *prober) upstreamProbe() error {
	stub, transport, err := newStubUpstream()
	if err != nil {
		return err
	}
	defer stub.close()
	defer transport.CloseIdleConnections()
	ns, err := p.each(probeBatch, func(int) error {
		req, err := http.NewRequest(http.MethodGet, "http://"+stub.addr+"/", nil)
		if err != nil {
			return err
		}
		resp, err := transport.RoundTrip(req)
		if err != nil {
			return fmt.Errorf("probe: upstream round trip: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	})
	p.m["socket.upstream_ns"] = ns
	return err
}

// runProbes measures the per-layer metrics that are the same whichever
// workload is traced, so the suite measures them once: the probes, the
// tracer's own cost, and what building a front and the inputs took.
func runProbes(in *inputs, passes int) (map[string]float64, error) {
	cal := newCalibrator(in)
	slow := cal.slowdown()
	f, err := buildFront(frontProxy, in)
	if err != nil {
		return nil, err
	}
	defer f.close()
	m := map[string]float64{
		"input.generate_s":        in.generateS,
		"trace.timer_ns":          timerNs(),
		"registry.register_ns":    median(f.registerNs) / slow,
		"core.generate_policy_ns": median(f.generatePolicyNs) / slow,
	}
	p := &prober{in: in, front: f, cal: cal, timer: m["trace.timer_ns"], passes: passes, m: m}
	vouched := p.wire("json", in.json)
	p.wire("yaml", in.yaml)
	if err := p.registryProbes(vouched); err != nil {
		return nil, err
	}
	if err := p.decodedProbes(); err != nil {
		return nil, err
	}
	if err := p.frontProbes(); err != nil {
		return nil, err
	}
	if err := p.upstreamProbe(); err != nil {
		return nil, err
	}
	if err := p.controlProbes(); err != nil {
		return nil, err
	}
	return m, nil
}

// runTraced is the separate traced run of one workload: requests sent
// with spans on, beside probes, the metrics of runProbes. It reports
// every per-layer metric and returns the budget table as text.
func runTraced(w workload, in *inputs, probes map[string]float64, seconds float64, requests int, outDir string) (*result, string, error) {
	if requests < untracedBlock {
		return nil, "", fmt.Errorf("the traced run needs at least %d requests, got %d", untracedBlock, requests)
	}
	tr := w.traffic(in)
	res := &result{Workload: w.name, Metrics: maps.Clone(probes), BodiesSHA256: bodiesHash(tr, hashedBodies)}
	m := res.Metrics

	cal := newCalibrator(in)
	fronts := make([]*front, 3) // indexed by frontKind
	clients := make([][]*client, 3)
	defer func() {
		for k, f := range fronts {
			if f != nil {
				closeClients(clients[k])
				f.close()
			}
		}
	}()
	build := func(kind frontKind) (err error) {
		fronts[kind], clients[kind], err = setUp(kind, in, tr)
		return err
	}

	// Untraced reference on the workload's own front, all clients, while
	// that front is the only one alive: the heap, and so the collector's
	// pace, is the end-to-end run's.
	if err := build(w.front); err != nil {
		return nil, "", err
	}
	var pub, busy *publisher
	if w.publish {
		pub = &publisher{order: in.swapOrder}
		busy = pub
	}
	period := (sliceFor + calibrateFor).Seconds()
	var refSeconds, gcCycles, gcPauseNs float64
	for i := 0; i < max(1, int(referenceShare*seconds/period)); i++ {
		sl := runSlice(fronts[w.front], tr, clients[w.front], pub, cal)
		refSeconds, gcCycles, gcPauseNs = refSeconds+sl.Seconds, gcCycles+float64(sl.gcCycles), gcPauseNs+float64(sl.gcPauseNs)
	}
	m["runtime.gc_cycles_per_s"] = gcCycles / refSeconds
	m["runtime.gc_pause_total_ms"] = gcPauseNs / 1e6 / refSeconds

	// Every other front is built too, so that plane.* and socket.* are
	// measured on this workload's traffic whichever front the workload
	// itself uses; hand is a fourth, proxy-kind front whose registry the
	// stages use.
	for kind := range fronts {
		if fronts[kind] == nil {
			if err := build(frontKind(kind)); err != nil {
				return nil, "", err
			}
		}
	}
	hand, handClients, err := setUp(frontProxy, in, tr)
	if err != nil {
		return nil, "", err
	}
	defer hand.close()
	defer closeClients(handClients)
	clients = append(clients, handClients)
	pl := fronts[frontPlane]

	// The traced replay, one client.
	timer := m["trace.timer_ns"]
	var order []int
	if w.publish {
		order = in.swapOrder
	}
	rp := newReplay(tr, requests, order, cal)
	before := snapshotCounters(fronts[frontProxy])
	// The traced and untraced requests of the workload's own front; the
	// untraced ones are not scaled, so neither are the traced ones they
	// are compared with.
	var replayClients []*client
	var untracedNs []float64
	for _, f := range fronts {
		var untraced *[]float64
		if f.kind == w.front {
			untraced = &untracedNs
		}
		cs, err := rp.throughFront(f, untraced)
		if err != nil {
			return nil, "", err
		}
		replayClients = append(replayClients, cs...)
	}
	var counted counterSnapshot
	counted.add(before, snapshotCounters(fronts[frontProxy]))
	if err := rp.throughStages(hand); err != nil {
		return nil, "", err
	}
	sent, attacks, _, _ := totals(replayClients[:2])
	res.checkCounters(w, fronts[frontProxy], sent, attacks, counted)
	if rp.mismatches > 0 {
		res.invalidf("%d hand-run verdicts differ from the ground truth", rp.mismatches)
	}
	m["proxy.fastpath_share"] = float64(counted.rawDecided) / float64(counted.inspected)
	m["proxy.denied_share"] = float64(counted.denied) / float64(counted.inspected)
	m["registry.cache_hit_share"] = float64(counted.cacheHits) / float64(counted.regRequests)

	// The plane with publishes running beside the traffic.
	if busy == nil {
		busy = &publisher{order: in.swapOrder}
		for i := 0; i < max(1, int(busyShare*seconds/period)); i++ {
			runSlice(pl, tr, clients[frontPlane], busy, cal)
		}
	}
	if busy.err != nil {
		return nil, "", fmt.Errorf("publish under traffic: %w", busy.err)
	}
	pm := pl.plane.Metrics()
	var maxRouted, sumRouted float64
	for _, r := range pm.Replicas {
		maxRouted, sumRouted = max(maxRouted, float64(r.Routed)), sumRouted+float64(r.Routed)
	}
	m["plane.publish_busy_ns"] = median(busy.busyNs)
	m["plane.shed_share"] = float64(pm.Shed) / float64(pm.Requests)
	m["plane.unavailable_share"] = float64(pm.Unavailable) / float64(pm.Requests)
	m["plane.route_imbalance"] = maxRouted / (sumRouted / float64(len(pm.Replicas)))
	m["plane.publish_window_open"] = float64(pm.PublishesStarted - pm.PublishesCompleted)
	res.checkPlane(pm)

	// Allocations of this workload's traffic: through the proxy, and of
	// the stages alone.
	handClient := newClients(hand, tr, 1)[0]
	handClient.counter = 6e15
	proxyAllocs := allocsPer(allocBatch, func(int) { handClient.next(hand, tr) })
	scratch := newTracer(allocBatch * int(spanKinds))
	st := stages{reg: hand.proxy.Registry(), hub: hand.proxy.Telemetry()}
	var body []byte
	stageAllocs := allocsPer(allocBatch, func(i int) {
		r := tr.at(i)
		st.run(scratch, -1, int32(i), r, tr.wire(&body, r, 65e14+uint64(i)))
	})
	m["proxy.allocs_self"] = proxyAllocs - stageAllocs

	// The budget: what of a proxied request the stages and the bare
	// forwarding floor explain, and what is left to the proxy itself.
	d := rp.durations(timer)
	stageSum := make([]float64, requests)
	routeSelf, socketOver := make([]float64, requests), make([]float64, requests)
	for n := range stageSum {
		for k := firstStage; k < spanKinds; k++ {
			stageSum[n] += max(d[k][n], 0)
		}
		routeSelf[n] = d[spanPlane][n] - d[spanProxy][n]
		socketOver[n] = d[spanSocket][n] - d[spanProxy][n]
	}
	m["proxy.serve_ns"] = median(d[spanProxy])
	m["proxy.stages_ns"] = median(stageSum)
	m["proxy.inspect_self_ns"] = m["proxy.serve_ns"] - m["proxy.passthrough_ns"] - m["proxy.stages_ns"]
	m["plane.serve_ns"] = median(d[spanPlane])
	m["plane.route_self_ns"] = median(routeSelf)
	m["socket.overhead_us"] = median(socketOver) / 1e3
	var tracedNs []float64
	for _, sp := range rp.t.spans {
		if sp.kind == frontSpans[w.front] {
			tracedNs = append(tracedNs, float64(sp.end-sp.start))
		}
	}
	m["trace.overhead_share"] = median(tracedNs)/median(untracedNs) - 1
	if over := m["trace.overhead_share"]; requests >= overheadMinTrace && (over > 0.25 || over < -0.25) {
		res.invalidf("traced %s p50 %.0f ns is not within 25%% of the untraced p50 %.0f ns of the same requests",
			spanNames[frontSpans[w.front]], median(tracedNs), median(untracedNs))
	}

	var all []*client
	for _, cs := range clients {
		all = append(all, cs...)
	}
	all = append(append(all, replayClients...), handClient)
	var firstFailure string
	res.Attempted, _, res.Failed, firstFailure = totals(all)
	if res.Failed > 0 {
		res.invalidf("%d failed operations, first: %s", res.Failed, firstFailure)
	}
	if err := rp.t.write(filepath.Join(outDir, w.name+".jsonl")); err != nil {
		return nil, "", fmt.Errorf("writing spans: %w", err)
	}
	return res, budgetTable(w, rp, d, stageSum, m), nil
}

// budgetTable renders the traced run for a reader: a row per path
// class, a row per stage, and the reconciliation.
func budgetTable(w workload, rp *tracedReplay, d [spanKinds][]float64, stageSum []float64, m map[string]float64) string {
	var b strings.Builder
	lo, hi := rp.slowdowns()
	fmt.Fprintf(&b, "budget %s: %d traced requests, one client, ns at reference speed (timer %.0f ns subtracted per span, then divided by the machine's slowdown, %.3f..%.3f; the span file holds the times as measured)\n",
		w.name, len(rp.class), m["trace.timer_ns"], lo, hi)
	fmt.Fprintf(&b, "  %-16s %8s %12s %12s %12s %12s\n", "path", "requests", "proxy p50", "stages p50", "plane p50", "socket p50")
	for c := pathClass(0); c < pathClasses; c++ {
		var serve, stages, plane, socket []float64
		for n, class := range rp.class {
			if class == c {
				serve, stages = append(serve, d[spanProxy][n]), append(stages, stageSum[n])
				plane, socket = append(plane, d[spanPlane][n]), append(socket, d[spanSocket][n])
			}
		}
		if len(serve) > 0 {
			fmt.Fprintf(&b, "  %-16s %8d %12.0f %12.0f %12.0f %12.0f\n", classNames[c], len(serve),
				median(serve), median(stages), median(plane), median(socket))
		}
	}
	var serveTotal float64
	for _, v := range d[spanProxy] {
		serveTotal += v
	}
	fmt.Fprintf(&b, "  %-26s %8s %12s %22s\n", "stage", "ran on", "p50", "share of proxy time")
	for k := firstStage; k < spanKinds; k++ {
		if r := ran(d[k]); len(r) > 0 {
			var total float64
			for _, v := range r {
				total += v
			}
			fmt.Fprintf(&b, "  %-26s %8d %12.0f %21.1f%%\n", spanNames[k], len(r), median(r), 100*total/serveTotal)
		}
	}
	fmt.Fprintf(&b, "  stages %.0f + passthrough %.0f + proxy self %.0f = proxy.serve_ns %.0f\n",
		m["proxy.stages_ns"], m["proxy.passthrough_ns"], m["proxy.inspect_self_ns"], m["proxy.serve_ns"])
	fmt.Fprintf(&b, "  proxy.serve_ns %.0f + plane.route_self_ns %.0f = plane.serve_ns %.0f (medians of per-request values; may differ by rounding of medians)\n",
		m["proxy.serve_ns"], m["plane.route_self_ns"], m["plane.serve_ns"])
	return b.String()
}
