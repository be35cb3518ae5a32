package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexProperty(t *testing.T) {
	// Every duration lands in the smallest bucket whose inclusive upper
	// bound covers it.
	rng := rand.New(rand.NewSource(1))
	check := func(d time.Duration) {
		idx := bucketIndex(d)
		bound := BucketBound(idx)
		if bound >= 0 && int64(d) > bound {
			t.Fatalf("d=%d placed in bucket %d with bound %d (too small)", d, idx, bound)
		}
		if idx > 0 {
			prev := BucketBound(idx - 1)
			if int64(d) <= prev {
				t.Fatalf("d=%d placed in bucket %d but fits bound %d", d, idx, prev)
			}
		}
	}
	for i := 0; i < 100000; i++ {
		check(time.Duration(rng.Int63n(int64(10 * time.Second))))
	}
	// Boundary cases: exact powers of two land on their own bound
	// (inclusive le semantics), one past rolls over.
	for b := 0; b < NumBuckets-1; b++ {
		bound := BucketBound(b)
		if got := bucketIndex(time.Duration(bound)); got != b {
			t.Fatalf("bound %d: bucketIndex=%d, want %d", bound, got, b)
		}
		if got := bucketIndex(time.Duration(bound + 1)); got != b+1 {
			t.Fatalf("bound+1 %d: bucketIndex=%d, want %d", bound+1, got, b+1)
		}
	}
	if got := bucketIndex(0); got != 0 {
		t.Fatalf("bucketIndex(0)=%d, want 0", got)
	}
	if got := bucketIndex(time.Hour); got != NumBuckets-1 {
		t.Fatalf("bucketIndex(1h)=%d, want overflow bucket %d", got, NumBuckets-1)
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	h := New(Config{Shards: 4})
	h.RecordDecision("api", VerdictAllowed, PathRaw, 300*time.Nanosecond)
	h.RecordDecision("api", VerdictAllowed, PathRaw, 900*time.Nanosecond)
	h.RecordDecision("api", VerdictDenied, PathDecoded, 5*time.Microsecond)
	h.RecordDecision("batch", VerdictShadowed, PathDecoded, 2*time.Microsecond)

	s := h.Snapshot()
	if got := s.Decisions(); got != 4 {
		t.Fatalf("Decisions()=%d, want 4", got)
	}
	api := s.Workload("api")
	if api == nil {
		t.Fatal("workload api missing from snapshot")
	}
	cell := api.Cell("allowed", "raw")
	if cell == nil || cell.Count != 2 {
		t.Fatalf("allowed/raw cell = %+v, want count 2", cell)
	}
	if cell.SumNs != 1200 {
		t.Fatalf("allowed/raw SumNs=%d, want 1200", cell.SumNs)
	}
	var bucketSum uint64
	for _, b := range cell.Buckets {
		bucketSum += b
	}
	if bucketSum != cell.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, cell.Count)
	}
	if s.Workload("batch").Cell("shadowed", "decoded") == nil {
		t.Fatal("batch shadowed/decoded cell missing")
	}
	// Zero-count cells are omitted.
	if api.Cell("shed", "raw") != nil {
		t.Fatal("zero-count cell present in snapshot")
	}
}

func TestLoadSumsAllCells(t *testing.T) {
	h := New(Config{Shards: 4})
	h.RecordDecision("api", VerdictAllowed, PathRaw, 300*time.Nanosecond)
	h.RecordDecision("api", VerdictAllowed, PathRaw, 900*time.Nanosecond)
	h.RecordDecision("api", VerdictDenied, PathDecoded, 5*time.Microsecond)
	h.RecordDecision("batch", VerdictShadowed, PathDecoded, 2*time.Microsecond)

	count, sumNs := h.Load("api")
	if count != 3 || sumNs != 300+900+5000 {
		t.Fatalf("Load(api) = (%d, %d), want (3, 6200)", count, sumNs)
	}
	// The read path agrees with the snapshot's cell sums.
	var snapCount, snapSum uint64
	snap := h.Snapshot()
	for _, cell := range snap.Workload("api").Cells {
		snapCount += cell.Count
		snapSum += cell.SumNs
	}
	if count != snapCount || sumNs != snapSum {
		t.Fatalf("Load(api) = (%d, %d) disagrees with snapshot (%d, %d)",
			count, sumNs, snapCount, snapSum)
	}
	if c, s := h.Load("ghost"); c != 0 || s != 0 {
		t.Fatalf("Load(ghost) = (%d, %d), want zero", c, s)
	}
	var nilHub *Hub
	if c, s := nilHub.Load("api"); c != 0 || s != 0 {
		t.Fatalf("nil hub Load = (%d, %d), want zero", c, s)
	}
}

func TestQuantile(t *testing.T) {
	h := New(Config{Shards: 1})
	// 90 fast decisions (<= 256ns), 10 slow (~1ms).
	for i := 0; i < 90; i++ {
		h.RecordDecision("w", VerdictAllowed, PathRaw, 200*time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.RecordDecision("w", VerdictAllowed, PathRaw, time.Millisecond)
	}
	snap := h.Snapshot()
	cell := snap.Workload("w").Cell("allowed", "raw")
	if p50 := cell.Quantile(0.50); p50 != 256*time.Nanosecond {
		t.Fatalf("p50=%v, want 256ns", p50)
	}
	if p99 := cell.Quantile(0.99); p99 < 512*time.Microsecond || p99 > 2*time.Millisecond {
		t.Fatalf("p99=%v, want ~1ms bucket bound", p99)
	}
	if q := cell.Quantile(0.5); cell.Quantile(0.99) < q {
		t.Fatalf("quantile not monotone: p99 %v < p50 %v", cell.Quantile(0.99), q)
	}
}

// TestQuantileNearestRank pins the nearest rank ⌈q·N⌉ at small counts,
// where rounding the rank down reports the fast bucket for the tail,
// and the float guard that keeps an exact integer q·N on its rank.
func TestQuantileNearestRank(t *testing.T) {
	quantile := func(fast, slow int, q float64) time.Duration {
		h := New(Config{Shards: 1})
		for i := 0; i < fast; i++ {
			h.RecordDecision("w", VerdictAllowed, PathRaw, 200*time.Nanosecond)
		}
		for i := 0; i < slow; i++ {
			h.RecordDecision("w", VerdictAllowed, PathRaw, time.Millisecond)
		}
		snap := h.Snapshot()
		return snap.Workload("w").Cell("allowed", "raw").Quantile(q)
	}
	for _, tc := range []struct {
		name       string
		fast, slow int
		q          float64
		slowBucket bool
	}{
		{"p99 of one fast and one slow", 1, 1, 0.99, true},
		{"p95 of nine fast and one slow", 9, 1, 0.95, true},
		{"p7 of seven fast and 93 slow", 7, 93, 0.07, false},
		{"p100 of two", 1, 1, 1, true},
	} {
		got := quantile(tc.fast, tc.slow, tc.q)
		if slow := got >= 512*time.Microsecond; slow != tc.slowBucket {
			t.Errorf("%s: Quantile(%v) = %v, slow bucket %v, want %v", tc.name, tc.q, got, slow, tc.slowBucket)
		}
	}
}

func TestMergeEqualsSumOfReplicas(t *testing.T) {
	// Property: the merged tier histogram of every cell equals the sum
	// of per-replica histograms — drive three hubs with a random but
	// mirrored workload and compare against one hub fed everything.
	rng := rand.New(rand.NewSource(7))
	replicas := []*Hub{New(Config{Shards: 2}), New(Config{Shards: 4}), New(Config{Shards: 1})}
	all := New(Config{Shards: 8})
	workloads := []string{"api", "batch", "cron"}
	for i := 0; i < 5000; i++ {
		w := workloads[rng.Intn(len(workloads))]
		v := Verdict(rng.Intn(numVerdicts))
		p := Path(rng.Intn(numPaths))
		d := time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
		replicas[rng.Intn(len(replicas))].RecordDecision(w, v, p, d)
		all.RecordDecision(w, v, p, d)
	}
	snaps := make([]Snapshot, len(replicas))
	for i, r := range replicas {
		snaps[i] = r.Snapshot()
	}
	merged := Merge(snaps...)
	want := all.Snapshot()
	if merged.Decisions() != want.Decisions() {
		t.Fatalf("merged decisions %d != %d", merged.Decisions(), want.Decisions())
	}
	for _, ws := range want.Workloads {
		mws := merged.Workload(ws.Workload)
		if mws == nil {
			t.Fatalf("merged snapshot missing workload %s", ws.Workload)
		}
		for _, c := range ws.Cells {
			mc := mws.Cell(c.Verdict, c.Path)
			if mc == nil {
				t.Fatalf("merged %s missing cell %s/%s", ws.Workload, c.Verdict, c.Path)
			}
			if mc.Count != c.Count || mc.SumNs != c.SumNs {
				t.Fatalf("%s %s/%s: merged count/sum %d/%d != %d/%d",
					ws.Workload, c.Verdict, c.Path, mc.Count, mc.SumNs, c.Count, c.SumNs)
			}
			for b := range c.Buckets {
				if mc.Buckets[b] != c.Buckets[b] {
					t.Fatalf("%s %s/%s bucket %d: merged %d != %d",
						ws.Workload, c.Verdict, c.Path, b, mc.Buckets[b], c.Buckets[b])
				}
			}
		}
	}
}

func TestConcurrentRecordScrape(t *testing.T) {
	// -race hammer: writers record while scrapers snapshot and expose.
	h := New(Config{Shards: 4, SampleEvery: 8})
	const writers = 8
	const perWriter = 2000
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var buf bytes.Buffer
			if err := WriteMetrics(&buf, s); err != nil {
				t.Errorf("WriteMetrics: %v", err)
				return
			}
			h.Traces()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d := time.Duration(i%4096) * time.Nanosecond
				tc := h.Sample()
				tc.Stage("resolve")
				tc.Stage("raw-match")
				h.RecordDecision("hammer", VerdictAllowed, PathRaw, d)
				tc.Finish("hammer", VerdictAllowed, PathRaw, "Pod", "p")
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scraperDone
	final := h.Snapshot()
	if got := final.Decisions(); got != writers*perWriter {
		t.Fatalf("decisions after quiesce = %d, want %d", got, writers*perWriter)
	}
}

func TestTraceSampling(t *testing.T) {
	h := New(Config{SampleEvery: 4, Shards: 1})
	for i := 0; i < 40; i++ {
		tc := h.Sample()
		tc.Stage("resolve")
		tc.Stage("validate")
		h.RecordDecision("w", VerdictDenied, PathDecoded, time.Microsecond)
		tc.Finish("w", VerdictDenied, PathDecoded, "Deployment", "web")
	}
	traces := h.Traces()
	if len(traces) != 10 {
		t.Fatalf("got %d traces, want 10 (1/4 of 40)", len(traces))
	}
	tr := traces[len(traces)-1]
	if tr.Workload != "w" || tr.Verdict != "denied" || tr.Path != "decoded" {
		t.Fatalf("trace labels = %+v", tr)
	}
	if tr.NumStages != 2 || tr.Stages[0].Name != "resolve" || tr.Stages[1].Name != "validate" {
		t.Fatalf("trace stages = %+v", tr.StageList())
	}
	if s := h.Snapshot(); s.Sampled != 10 {
		t.Fatalf("Sampled=%d, want 10", s.Sampled)
	}
	// JSON emits a trimmed stages list, not the fixed array.
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"stages":[{"name":"resolve"`) {
		t.Fatalf("trace JSON missing trimmed stages: %s", raw)
	}
	// Unsampled hub and nil ctx are no-ops.
	off := New(Config{SampleEvery: 0})
	if tc := off.Sample(); tc != nil {
		t.Fatal("SampleEvery=0 hub returned a trace ctx")
	}
	var nilCtx *TraceCtx
	nilCtx.Stage("x")
	nilCtx.Finish("w", VerdictAllowed, PathRaw, "", "")
	nilCtx.Discard()
}

func TestTraceRingBounded(t *testing.T) {
	h := New(Config{SampleEvery: 1, Shards: 1})
	for i := 0; i < maxTraces+50; i++ {
		tc := h.Sample()
		tc.Finish("w", VerdictAllowed, PathRaw, "", fmt.Sprint(i))
	}
	traces := h.Traces()
	if len(traces) != maxTraces {
		t.Fatalf("ring kept %d traces, want %d", len(traces), maxTraces)
	}
	if traces[0].Name != "50" || traces[maxTraces-1].Name != fmt.Sprint(maxTraces+49) {
		t.Errorf("ring kept traces %s..%s, want the newest, 50..%d",
			traces[0].Name, traces[maxTraces-1].Name, maxTraces+49)
	}
}

func TestNilHubSafe(t *testing.T) {
	var h *Hub
	h.RecordDecision("w", VerdictAllowed, PathRaw, time.Microsecond)
	if tc := h.Sample(); tc != nil {
		t.Fatal("nil hub sampled")
	}
	if tr := h.Traces(); tr != nil {
		t.Fatal("nil hub returned traces")
	}
	if s := h.Snapshot(); s.Decisions() != 0 {
		t.Fatal("nil hub snapshot non-empty")
	}
	if h.SampleEvery() != 0 {
		t.Fatal("nil hub SampleEvery non-zero")
	}
}

func TestRecordDecisionAllocFree(t *testing.T) {
	h := New(Config{Shards: 4})
	// The first decision a workload records publishes its state; warm it.
	h.RecordDecision("w", VerdictAllowed, PathRaw, 731*time.Nanosecond)
	allocs := testing.AllocsPerRun(1000, func() {
		h.RecordDecision("w", VerdictAllowed, PathRaw, 731*time.Nanosecond)
	})
	if allocs != 0 {
		t.Fatalf("RecordDecision allocs/op = %v, want 0", allocs)
	}
	// The unsampled Sample() probe is also alloc-free.
	hs := New(Config{Shards: 1, SampleEvery: 1 << 30})
	allocs = testing.AllocsPerRun(1000, func() {
		if tc := hs.Sample(); tc != nil {
			tc.Discard()
		}
	})
	if allocs != 0 {
		t.Fatalf("unsampled Sample allocs/op = %v, want 0", allocs)
	}
}

func TestWriteMetricsExposition(t *testing.T) {
	h := New(Config{Shards: 2, SampleEvery: 2})
	for i := 0; i < 100; i++ {
		tc := h.Sample()
		h.RecordDecision("api", VerdictAllowed, PathRaw, time.Duration(i)*time.Microsecond)
		tc.Finish("api", VerdictAllowed, PathRaw, "Pod", "p")
	}
	h.RecordDecision("api", VerdictDenied, PathDecoded, 3*time.Millisecond)
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, h.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`# TYPE kubefence_decisions_total counter`,
		`# TYPE kubefence_decision_seconds histogram`,
		`kubefence_decisions_total{workload="api",verdict="allowed",path="raw"} 100`,
		`kubefence_decisions_total{workload="api",verdict="denied",path="decoded"} 1`,
		`le="+Inf"`,
		`kubefence_decision_seconds_count{workload="api",verdict="allowed",path="raw"} 100`,
		`kubefence_traces_sampled_total 50`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("ValidateExposition: %v\n%s", err, out)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"bad name":       "9badname 1\n",
		"no value":       "kubefence_decisions_total\n",
		"bad value":      "kubefence_decisions_total x\n",
		"bad label":      `kubefence_decisions_total{9bad="x"} 1` + "\n",
		"unquoted":       `kubefence_decisions_total{workload=x} 1` + "\n",
		"bucket no le":   `m_bucket{workload="x"} 1` + "\n",
		"non-cumulative": "m_bucket{le=\"1\"} 5\nm_bucket{le=\"2\"} 3\nm_bucket{le=\"+Inf\"} 5\n",
		"no inf":         `m_bucket{le="1"} 5` + "\n",
		"count mismatch": "m_bucket{le=\"+Inf\"} 5\nm_count 7\n",
		"bad type":       "# TYPE m frobnicator\n",
	}
	for name, in := range cases {
		if err := ValidateExposition([]byte(in)); err == nil {
			t.Errorf("%s: ValidateExposition accepted %q", name, in)
		}
	}
	// Valid input with comments, blanks, and an escaped label passes.
	ok := "# random comment\n\nm_total{l=\"a\\\"b\"} 1 1712345678\n"
	if err := ValidateExposition([]byte(ok)); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

func TestMux(t *testing.T) {
	h := New(Config{Shards: 1, SampleEvery: 1})
	tc := h.Sample()
	h.RecordDecision("api", VerdictAllowed, PathRaw, time.Microsecond)
	tc.Finish("api", VerdictAllowed, PathRaw, "Pod", "p")
	healthy := true
	mux := Mux(MuxConfig{
		Snapshot: h.Snapshot,
		Traces:   h.Traces,
		Varz:     func() any { return map[string]int{"replicas": 3} },
		Healthz: func() error {
			if !healthy {
				return errDraining
			}
			return nil
		},
		EnablePprof: true,
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if err := ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("/metrics not valid exposition: %v", err)
	}
	if !strings.Contains(body, "kubefence_decisions_total") {
		t.Fatalf("/metrics missing decision counter:\n%s", body)
	}

	code, body = get("/varz")
	if code != 200 {
		t.Fatalf("/varz status %d", code)
	}
	var varz map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &varz); err != nil {
		t.Fatalf("/varz not JSON: %v", err)
	}
	for _, k := range []string{"telemetry", "traces", "state"} {
		if _, ok := varz[k]; !ok {
			t.Fatalf("/varz missing %q: %s", k, body)
		}
	}

	if code, body = get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	healthy = false
	if code, _ = get("/healthz"); code != 503 {
		t.Fatalf("unhealthy /healthz = %d, want 503", code)
	}

	if code, _ = get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

var errDraining = errDrainingType{}

type errDrainingType struct{}

func (errDrainingType) Error() string { return "draining" }
