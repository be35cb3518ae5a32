package proxy

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/object"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// telemetryFixture wires a registry-backed proxy to a hub sampling
// every decision, so each verdict site's recording is observable.
func telemetryFixture(t *testing.T, tenants ...string) (*Proxy, *registry.Registry, *telemetry.Hub) {
	t.Helper()
	reg := registry.New(registry.Config{})
	for _, tenant := range tenants {
		if _, err := reg.Register(tenant, registry.Selector{Namespace: tenant}, tenantPolicy(t, tenant)); err != nil {
			t.Fatal(err)
		}
	}
	hub := telemetry.New(telemetry.Config{SampleEvery: 1})
	p, err := New(Config{
		Upstream:  "http://upstream.invalid",
		Transport: echoTransport{},
		Registry:  reg,
		Telemetry: hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, reg, hub
}

func postTenant(t *testing.T, p *Proxy, namespace string, o object.Object) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost,
		"/api/v1/namespaces/"+namespace+"/configmaps", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Remote-User", "operator")
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
	return rec
}

// verdictCount sums a workload's cells for one verdict across both
// pipeline paths (which path decides is an implementation detail the
// test does not pin).
func verdictCount(s telemetry.Snapshot, workload string, v telemetry.Verdict) uint64 {
	ws := s.Workload(workload)
	if ws == nil {
		return 0
	}
	var n uint64
	for _, c := range ws.Cells {
		if c.Verdict == v.String() {
			n += c.Count
		}
	}
	return n
}

func TestProxyRecordsVerdictTelemetry(t *testing.T) {
	p, reg, hub := telemetryFixture(t, "alpha")

	// Allowed: the benign object conforms to alpha's policy.
	if rec := postTenant(t, p, "alpha", tenantConfigMap("alpha", "alpha")); rec.Code != http.StatusOK {
		t.Fatalf("benign request: code %d, body %s", rec.Code, rec.Body)
	}
	// Denied: a foreign tenant's shape violates alpha's policy.
	if rec := postTenant(t, p, "alpha", tenantConfigMap("beta", "alpha")); rec.Code != http.StatusForbidden {
		t.Fatalf("violating request: code %d", rec.Code)
	}
	// Rejected: no registered policy governs this namespace (fail
	// closed), recorded under the unresolved pseudo-workload.
	if rec := postTenant(t, p, "nobody", tenantConfigMap("alpha", "nobody")); rec.Code != http.StatusForbidden {
		t.Fatalf("unpoliced request: code %d", rec.Code)
	}
	// Shadowed: in shadow mode the would-deny is recorded, not enforced.
	if err := reg.SetMode("alpha", registry.ModeShadow); err != nil {
		t.Fatal(err)
	}
	if rec := postTenant(t, p, "alpha", tenantConfigMap("beta", "alpha")); rec.Code != http.StatusOK {
		t.Fatalf("shadow would-deny: code %d", rec.Code)
	}
	// Learned: learn mode forwards and feeds the miner, no validation.
	if err := reg.SetMode("alpha", registry.ModeLearn); err != nil {
		t.Fatal(err)
	}
	if rec := postTenant(t, p, "alpha", tenantConfigMap("alpha", "alpha")); rec.Code != http.StatusOK {
		t.Fatalf("learn-mode request: code %d", rec.Code)
	}
	// Rejected before any inspection: a body cut off mid-stream, an
	// oversized one and an unsupported content type.
	for _, tc := range []struct {
		body        io.Reader
		contentType string
		code        int
	}{
		{iotest.ErrReader(errors.New("connection reset mid-body")), "application/json", http.StatusBadRequest},
		{bytes.NewReader(make([]byte, maxInspectBytes+1)), "application/json", http.StatusRequestEntityTooLarge},
		{strings.NewReader("kind: ConfigMap\n"), "text/plain", http.StatusUnsupportedMediaType},
	} {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/alpha/configmaps", tc.body)
		req.Header.Set("Content-Type", tc.contentType)
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, req)
		if rec.Code != tc.code {
			t.Fatalf("fail-closed request: code %d, want %d", rec.Code, tc.code)
		}
	}

	snap := hub.Snapshot()
	for _, want := range []struct {
		workload string
		verdict  telemetry.Verdict
		count    uint64
	}{
		{"alpha", telemetry.VerdictAllowed, 1},
		{"alpha", telemetry.VerdictDenied, 1},
		{"alpha", telemetry.VerdictShadowed, 1},
		{"alpha", telemetry.VerdictLearned, 1},
		{UnresolvedWorkload, telemetry.VerdictRejected, 4},
	} {
		if got := verdictCount(snap, want.workload, want.verdict); got != want.count {
			t.Errorf("workload %s verdict %s: count %d, want %d",
				want.workload, want.verdict, got, want.count)
		}
	}
	if got := snap.Decisions(); got != 8 {
		t.Errorf("total decisions %d, want 8", got)
	}

	// Sampling 1/1: every inspected decision landed a trace (the three
	// rejected before inspection have nothing to trace), every one of them
	// scanned first (its own stage, not folded into resolve), and decided
	// requests carry the resolve stage.
	traces := hub.Traces()
	if len(traces) != 5 {
		t.Fatalf("traces sampled %d, want 5", len(traces))
	}
	sawResolve := false
	for _, tr := range traces {
		if tr.NumStages == 0 || tr.Stages[0].Name != "scan" {
			t.Errorf("trace %s/%s does not open with a scan stage: %+v", tr.Workload, tr.Verdict, tr.StageList())
		}
		for i := 0; i < tr.NumStages; i++ {
			if tr.Stages[i].Name == "resolve" {
				sawResolve = true
			}
		}
	}
	if !sawResolve {
		t.Error("no sampled trace carries a resolve stage")
	}

	// The denial was judged on the raw bytes: it is counted on the raw
	// path, and its trace shows the raw-diagnose stage and no decode, so
	// a vouch (raw-match), a raw denial and a decode tell apart.
	if c := snap.Workload("alpha").Cell(telemetry.VerdictDenied.String(), telemetry.PathRaw.String()); c == nil || c.Count != 1 {
		t.Errorf("alpha's denial is not on the raw path: %+v", snap.Workload("alpha").Cells)
	}
	for _, tr := range traces {
		if tr.Verdict != telemetry.VerdictDenied.String() {
			continue
		}
		var stages []string
		for _, st := range tr.StageList() {
			stages = append(stages, st.Name)
		}
		if got := strings.Join(stages, ","); got != "scan,resolve,raw-diagnose" {
			t.Errorf("raw denial's trace stages = %s, want scan,resolve,raw-diagnose", got)
		}
	}
}

// The hub of the proxy that serves a request counts how the scan memo
// answered it, and the counters reach the snapshot and /metrics.
func TestProxyRecordsScanMemoTelemetry(t *testing.T) {
	// The memo is process-wide, and the tests before this one may have
	// filled the set this body lands in (an eviction); a fresh memo makes
	// the counts this request's alone.
	defer func(m *scanMemo) { processScanMemo = m }(processScanMemo)
	processScanMemo = newScanMemo(memoSets)
	p, _, hub := telemetryFixture(t, "alpha")
	// A body no other test sends, so the process-wide memo has not seen it.
	o := tenantConfigMap("alpha", "alpha")
	o["metadata"].(map[string]any)["resourceVersion"] = "scan-memo-telemetry"
	for i := 0; i < 3; i++ {
		if rec := postTenant(t, p, "alpha", o); rec.Code != http.StatusOK {
			t.Fatalf("request %d: code %d, body %s", i, rec.Code, rec.Body)
		}
	}
	// Reads are not inspected: nothing is scanned, nothing is counted.
	p.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/api/v1/namespaces/alpha/configmaps", nil))

	snap := hub.Snapshot()
	if got, want := snap.ScanMemo, (telemetry.ScanMemoSnapshot{Hits: 2, Misses: 1}); got != want {
		t.Errorf("scan memo counters = %+v, want %+v", got, want)
	}
	if merged := telemetry.Merge(snap, snap).ScanMemo; merged.Hits != 4 || merged.Misses != 2 {
		t.Errorf("merged scan memo counters = %+v, want the sum", merged)
	}
	var out bytes.Buffer
	if err := telemetry.WriteMetrics(&out, snap); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateExposition(out.Bytes()); err != nil {
		t.Errorf("exposition with scan memo counters: %v", err)
	}
	for _, line := range []string{
		`kubefence_scan_memo_total{outcome="hit"} 2`,
		`kubefence_scan_memo_total{outcome="miss"} 1`,
		`kubefence_scan_memo_evictions_total 0`,
	} {
		if !bytes.Contains(out.Bytes(), []byte(line+"\n")) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

func TestProxyTelemetryNilHub(t *testing.T) {
	// Without a hub the proxy must behave identically — the nil-receiver
	// no-ops are the zero-cost-off contract.
	reg := registry.New(registry.Config{})
	if _, err := reg.Register("alpha", registry.Selector{Namespace: "alpha"}, tenantPolicy(t, "alpha")); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Upstream:  "http://upstream.invalid",
		Transport: echoTransport{},
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Telemetry() != nil {
		t.Error("proxy without a hub reports one")
	}
	if rec := postTenant(t, p, "alpha", tenantConfigMap("alpha", "alpha")); rec.Code != http.StatusOK {
		t.Fatalf("benign request without hub: code %d", rec.Code)
	}
}
