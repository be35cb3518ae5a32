package plane

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/registry"
	"repro/internal/telemetry"
)

// telemetryPlane builds a tier with telemetry on and a workload per
// namespace, so requests fan out across replica hubs.
func telemetryPlane(t *testing.T, replicas int, namespaces []string) *Plane {
	t.Helper()
	pl := newTestPlane(t, replicas, Config{
		Telemetry: &telemetry.Config{SampleEvery: 1},
	})
	for _, ns := range namespaces {
		if err := pl.Register("wl-"+ns, registry.Selector{Namespace: ns}, policyFor(t, "wl-"+ns, false, img)); err != nil {
			t.Fatalf("Register %s: %v", ns, err)
		}
	}
	return pl
}

func TestPlaneTelemetryMergedEqualsReplicaSum(t *testing.T) {
	namespaces := []string{"alpha", "beta", "gamma", "delta"}
	pl := telemetryPlane(t, 3, namespaces)
	const rounds = 25
	admitted := 0
	for i := 0; i < rounds; i++ {
		for _, ns := range namespaces {
			path := "/api/v1/namespaces/" + ns + "/pods"
			if w := post(t, pl, path, podBody(false, img)); w.Code != http.StatusOK {
				t.Fatalf("benign %s: code %d, body %s", ns, w.Code, w.Body)
			}
			if w := post(t, pl, path, podBody(true, img)); w.Code != http.StatusForbidden {
				t.Fatalf("attack %s: code %d, want 403", ns, w.Code)
			}
			admitted += 2
		}
	}

	// The tier rollup must equal the cell-by-cell sum over the replica
	// hubs plus the front door — the plane-level half of the merge
	// property the telemetry package proves hub-by-hub.
	merged := pl.Telemetry()
	var replicaSum, replicaTraced uint64
	perCell := map[[3]string]uint64{}
	for i := 0; ; i++ {
		hub := pl.ReplicaTelemetry(i)
		if hub == nil {
			break
		}
		snap := hub.Snapshot()
		replicaSum += snap.Decisions()
		replicaTraced += snap.Sampled
		for _, ws := range snap.Workloads {
			for _, c := range ws.Cells {
				perCell[[3]string{ws.Workload, c.Verdict, c.Path}] += c.Count
			}
		}
	}
	if replicaSum != uint64(admitted) {
		t.Errorf("replica hubs recorded %d decisions, want %d", replicaSum, admitted)
	}
	front := merged.Workload(FrontDoorWorkload)
	if front == nil {
		t.Fatal("merged snapshot has no front-door workload")
	}
	routed := front.Cell(telemetry.VerdictRouted.String(), telemetry.PathRaw.String())
	if routed == nil || routed.Count != uint64(admitted) {
		t.Fatalf("front door routed cell = %+v, want count %d", routed, admitted)
	}
	var frontTotal uint64
	for _, c := range front.Cells {
		frontTotal += c.Count
	}
	if got, want := merged.Decisions(), replicaSum+frontTotal; got != want {
		t.Errorf("merged decisions = %d, want replicas+front = %d", got, want)
	}
	for cell, want := range perCell {
		ws := merged.Workload(cell[0])
		if ws == nil {
			t.Fatalf("merged snapshot lost workload %s", cell[0])
		}
		c := ws.Cell(cell[1], cell[2])
		if c == nil || c.Count != want {
			t.Errorf("merged cell %v = %+v, want count %d", cell, c, want)
		}
	}

	// The front door scans a request to route it and the replica that
	// serves it counts, once, how the scan memo answered: the tier sent
	// two distinct bodies, so at most two scans ever ran.
	if sm := merged.ScanMemo; sm.Hits+sm.Misses != uint64(admitted) || sm.Misses > 2 {
		t.Errorf("merged scan memo counters = %+v, want %d scans, at most 2 of them misses", sm, admitted)
	}

	// Sampling at 1/1 traces every replica decision; the tier view
	// surfaces them.
	if replicaTraced != uint64(admitted) {
		t.Errorf("replicas sampled %d traces, want %d", replicaTraced, admitted)
	}
	if len(pl.Traces()) == 0 {
		t.Error("tier trace view is empty despite 1/1 sampling")
	}
}

func TestPlaneTelemetrySurvivesRestart(t *testing.T) {
	pl := telemetryPlane(t, 1, []string{"alpha"})
	path := "/api/v1/namespaces/alpha/pods"
	if w := post(t, pl, path, podBody(false, img)); w.Code != http.StatusOK {
		t.Fatalf("pre-restart request: code %d", w.Code)
	}
	snap := pl.ReplicaTelemetry(0).Snapshot()
	before := snap.Decisions()
	if before == 0 {
		t.Fatal("no decisions recorded before restart")
	}
	if err := pl.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := pl.Restart(0); err != nil {
		t.Fatal(err)
	}
	if w := post(t, pl, path, podBody(false, img)); w.Code != http.StatusOK {
		t.Fatalf("post-restart request: code %d", w.Code)
	}
	// The hub is created once per replica slot, not per proxy boot:
	// counters span generations.
	after := pl.ReplicaTelemetry(0).Snapshot()
	if got := after.Decisions(); got != before+1 {
		t.Errorf("decisions after restart = %d, want %d", got, before+1)
	}
}

func TestPlaneHealthz(t *testing.T) {
	pl := telemetryPlane(t, 2, []string{"alpha"})
	get := func() (*httptest.ResponseRecorder, map[string]any) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		w := httptest.NewRecorder()
		pl.ServeHTTP(w, req)
		var body map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("healthz body %q: %v", w.Body, err)
		}
		return w, body
	}
	w, body := get()
	if w.Code != http.StatusOK {
		t.Fatalf("healthz with active replicas: code %d", w.Code)
	}
	if body["status"] != "ok" {
		t.Errorf("healthz status = %v, want ok", body["status"])
	}
	// A health scrape is not admission traffic.
	if pl.Metrics().Requests != 0 {
		t.Errorf("healthz counted as admission: Requests = %d", pl.Metrics().Requests)
	}
	for i := 0; i < 2; i++ {
		if err := pl.Kill(i); err != nil {
			t.Fatal(err)
		}
	}
	if w, body = get(); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no active replicas: code %d, body %v", w.Code, body)
	}
}

func TestPlaneVarz(t *testing.T) {
	pl := telemetryPlane(t, 2, []string{"alpha"})
	if w := post(t, pl, "/api/v1/namespaces/alpha/pods", podBody(false, img)); w.Code != http.StatusOK {
		t.Fatalf("seed request: code %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/varz", nil)
	w := httptest.NewRecorder()
	pl.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("varz: code %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("varz content type %q", ct)
	}
	var body struct {
		Tier      json.RawMessage    `json:"tier"`
		Telemetry telemetry.Snapshot `json:"telemetry"`
		Traces    []telemetry.Trace  `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("varz body: %v", err)
	}
	if len(body.Tier) == 0 {
		t.Error("varz has no tier rollup")
	}
	if body.Telemetry.Decisions() == 0 {
		t.Error("varz telemetry snapshot is empty")
	}
	if len(body.Traces) == 0 {
		t.Error("varz has no traces despite 1/1 sampling")
	}
}
