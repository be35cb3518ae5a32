package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/plane"
)

// workload is one named traffic mix on one front. The names are fixed:
// BENCHMARK.json and later issues refer to them.
type workload struct {
	name    string
	front   frontKind
	traffic func(in *inputs) *traffic
	// publish makes client 0 re-publish a policy every publishEvery.
	publish bool
	// cacheHits is the decision-cache behaviour the workload exists to
	// exercise: +1 every decision is a hit, -1 none is, 0 unchecked.
	cacheHits int
}

var workloads = []workload{
	{name: "reapply_json", front: frontProxy, cacheHits: +1,
		traffic: func(in *inputs) *traffic { return &traffic{benign: in.json} }},
	{name: "unique_json", front: frontProxy, cacheHits: -1,
		traffic: func(in *inputs) *traffic { return &traffic{benign: in.json, unique: true} }},
	{name: "unique_yaml", front: frontProxy, cacheHits: -1,
		traffic: func(in *inputs) *traffic { return &traffic{benign: in.yaml, unique: true} }},
	{name: "attack_mix", front: frontProxy, cacheHits: -1,
		traffic: func(in *inputs) *traffic {
			return &traffic{benign: in.json, attacks: in.attacks, unique: true}
		}},
	{name: "plane_swap_json", front: frontPlane, publish: true,
		traffic: func(in *inputs) *traffic { return &traffic{benign: in.json} }},
	{name: "socket_reapply_json", front: frontSocket, cacheHits: +1,
		traffic: func(in *inputs) *traffic { return &traffic{benign: in.json} }},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Shape of one end-to-end run.
const (
	setupBuilds       = 9  // set-ups per run; setup_s is their median
	publishBatch      = 50 // idle re-publishes per batch; publish_p50_us is the median of the batch medians
	publishAfterEvery = 3  // slices between two batches
	hashedBodies      = 10000
)

// result is what one run of one workload reports.
type result struct {
	Workload  string `json:"workload"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// Metrics holds the declared metrics by name; reports pair them with
	// their units (see units in main.go).
	Metrics map[string]float64 `json:"-"`
	// Measured holds the same medians of the time-based end-to-end
	// metrics before reference speed is applied: the machine's own
	// seconds, beside the declared figures in every output.
	Measured map[string]float64 `json:"as_measured,omitempty"`
	// Slices are the per-slice values, as measured, behind the medians.
	Slices []slice `json:"slices,omitempty"`
	// BodiesSHA256 hashes the first hashedBodies request bodies.
	BodiesSHA256 string `json:"bodies_sha256"`
	// Invalid lists the validity self-checks the run failed: a workload
	// that stopped exercising what it claims must not report a number.
	Invalid []string `json:"invalid,omitempty"`
}

func (r *result) invalidf(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Invalid) == 0 }

// setUp builds the workload's front and warms it up: everything
// between generated inputs in hand and the first measured request.
func setUp(kind frontKind, in *inputs, tr *traffic) (*front, []*client, error) {
	f, err := buildFront(kind, in)
	if err != nil {
		return nil, nil, err
	}
	cs := newClients(f, tr, clientCount())
	warmUp(f, tr, cs)
	return f, cs, nil
}

// checkCounters compares the front's own accounting over an interval
// with what the clients sent: every request carried a body to inspect,
// exactly the attacks were denied, and the decision cache behaved as
// the workload claims.
func (r *result) checkCounters(w workload, f *front, sent, attacks uint64, c counterSnapshot) {
	if c.inspected != sent {
		r.invalidf("front inspected %d bodies, clients sent %d", c.inspected, sent)
	}
	if c.denied != attacks {
		r.invalidf("front denied %d requests, clients sent %d attacks", c.denied, attacks)
	}
	if w.cacheHits == 0 || f.plane != nil || c.regRequests == 0 {
		return
	}
	share := float64(c.cacheHits) / float64(c.regRequests)
	if w.cacheHits > 0 && share < 0.99 {
		r.invalidf("decision-cache hit share %.4f, want >= 0.99", share)
	}
	if w.cacheHits < 0 && share > 0.01 {
		r.invalidf("decision-cache hit share %.4f, want <= 0.01", share)
	}
}

// checkPlane requires every started publish to have completed and
// nothing to have been shed.
func (r *result) checkPlane(m plane.TierMetrics) {
	if m.PublishesStarted != m.PublishesCompleted || m.Shed != 0 {
		r.invalidf("plane: %d publishes started, %d completed, %d requests shed",
			m.PublishesStarted, m.PublishesCompleted, m.Shed)
	}
}

// counterSnapshot is the front-side accounting at one instant, or its
// change over an interval.
type counterSnapshot struct {
	inspected, denied, rawDecided, regRequests, cacheHits uint64
}

// add accumulates the change between two snapshots.
func (c *counterSnapshot) add(from, to counterSnapshot) {
	c.inspected += to.inspected - from.inspected
	c.denied += to.denied - from.denied
	c.rawDecided += to.rawDecided - from.rawDecided
	c.regRequests += to.regRequests - from.regRequests
	c.cacheHits += to.cacheHits - from.cacheHits
}

func snapshotCounters(f *front) counterSnapshot {
	m := f.counters()
	s := counterSnapshot{inspected: m.Inspected, denied: m.Denied, rawDecided: m.RawAllowed + m.RawDenied}
	if f.proxy != nil {
		// One registry: sum its per-tenant counters.
		for _, rm := range f.proxy.Registry().Metrics() {
			s.regRequests += rm.Requests
			s.cacheHits += rm.CacheHits
		}
	}
	return s
}

// runEndToEnd measures one workload with tracing off: setupBuilds
// set-ups, then calibrated slices filling seconds with batches of idle
// publishes between them, then the live heap.
func runEndToEnd(w workload, in *inputs, seconds float64) (*result, error) {
	tr := w.traffic(in)
	res := &result{Workload: w.name, Metrics: map[string]float64{}, Measured: map[string]float64{},
		BodiesSHA256: bodiesHash(tr, hashedBodies)}

	cal := newCalibrator(in)
	var f *front
	var cs []*client
	var setupS, setupMeasured []float64
	for i := 0; i < setupBuilds; i++ {
		if f != nil {
			closeClients(cs)
			f.close()
		}
		slow := cal.slowdown()
		start := time.Now()
		var err error
		if f, cs, err = setUp(w.front, in, tr); err != nil {
			return nil, err
		}
		took := time.Since(start).Seconds()
		setupS, setupMeasured = append(setupS, took/slow), append(setupMeasured, took)
	}
	defer f.close()
	defer closeClients(cs)
	res.Metrics["setup_s"], res.Measured["setup_s"] = median(setupS), median(setupMeasured)

	var pub *publisher
	if w.publish {
		pub = &publisher{order: in.swapOrder}
	}
	// A calibration and a slice together fill one period of the run.
	count := max(1, int(seconds/(sliceFor+calibrateFor).Seconds()))
	var publishUs, publishMeasured []float64
	var sliceSent, sliceAttacks uint64
	var counted counterSnapshot
	for i := 0; i < count; i++ {
		sent0, attacks0, _, _ := totals(cs)
		c0 := snapshotCounters(f)
		res.Slices = append(res.Slices, runSlice(f, tr, cs, pub, cal))
		sent1, attacks1, _, _ := totals(cs)
		sliceSent, sliceAttacks = sliceSent+sent1-sent0, sliceAttacks+attacks1-attacks0
		counted.add(c0, snapshotCounters(f))
		if (i+1)%publishAfterEvery != 0 && i != count-1 {
			continue
		}

		// Idle publishes, in batches spread over the run so that they
		// sample the same stretch of time as the slices: time until the
		// new generation is the one served. They empty the tenants' cache
		// shards, so the stream is warmed up again before the next slice.
		slow := cal.slowdown()
		batch := make([]float64, publishBatch)
		for j := range batch {
			start := time.Now()
			if err := f.publish(in.swapOrder[(len(publishUs)*publishBatch+j)%len(in.swapOrder)]); err != nil {
				return nil, fmt.Errorf("idle publish: %w", err)
			}
			batch[j] = float64(time.Since(start)) / 1e3
		}
		publishUs, publishMeasured = append(publishUs, median(batch)/slow), append(publishMeasured, median(batch))
		warmUp(f, tr, cs)
	}
	// Warm-up requests are attempted operations too.
	var firstFailure string
	res.Attempted, _, res.Failed, firstFailure = totals(cs)
	if res.Failed > 0 {
		res.invalidf("%d failed operations, first: %s", res.Failed, firstFailure)
	}
	if pub != nil && pub.err != nil {
		return nil, fmt.Errorf("publish under traffic: %w", pub.err)
	}
	res.checkCounters(w, f, sliceSent, sliceAttacks, counted)
	if f.plane != nil {
		res.checkPlane(f.plane.Metrics())
	}

	for _, sm := range sliceMetrics {
		res.Metrics[sm.name] = median(sliceValues(res.Slices, func(s slice) float64 { return atReference(s, sm.measured, sm.speed) }))
		if sm.speed != 0 {
			res.Measured[sm.name] = median(sliceValues(res.Slices, sm.measured))
		}
	}
	res.Metrics["publish_p50_us"], res.Measured["publish_p50_us"] = median(publishUs), median(publishMeasured)

	// Live heap with the fleet, its caches and the clients still held.
	// Two collections: the first only moves sync.Pool contents to the
	// victim cache.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Metrics["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(f)
	return res, nil
}
