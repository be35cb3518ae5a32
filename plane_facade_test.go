package kubefence_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	kubefence "repro"

	"repro/internal/mutate"
	"repro/internal/object"
	"repro/internal/registry"
	"repro/internal/replay"
)

// echoTransport answers every forwarded request in-memory so both
// proxies under comparison see an identical upstream.
type echoTransport struct{}

func (echoTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(bytes.NewReader([]byte(`{"status":"ok"}`))),
		Request:    r,
	}, nil
}

// chartEvents renders a builtin chart and builds its benign trace
// (create + reconcile re-apply) plus the adversarial mutation matrix.
func chartEvents(t *testing.T, name string, c *kubefence.Chart, maxPerClass int) []replay.Event {
	t.Helper()
	manifests, err := kubefence.RenderChart(c, nil, kubefence.ReleaseOptions{
		Name: "rel", Namespace: name,
	})
	if err != nil {
		t.Fatal(err)
	}
	var objs []object.Object
	for _, m := range manifests {
		o, err := object.ParseManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	var events []replay.Event
	for _, o := range objs {
		for _, method := range []string{"POST", "PUT"} {
			ev, err := replay.BenignEvent(name, o, method)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, ev)
		}
	}
	scs, err := mutate.ForCatalog(objs, mutate.Options{MaxPerAttackClass: maxPerClass})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		ev, err := replay.AttackEvent(name, sc)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatalf("no replay events generated for %s", name)
	}
	return events
}

func roundTrip(t *testing.T, h http.Handler, ev replay.Event) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(ev.Method, ev.Path, bytes.NewReader(ev.Body))
	req.Header.Set("Content-Type", ev.ContentType)
	req.Header.Set("X-Remote-User", "operator:equivalence")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, body
}

// TestNewPlaneFacade exercises the facade plane surface end to end:
// construction, RegisterOn/SwapOn propagation, generation visibility,
// fail-closed enforcement of the mutation matrix, and the tier metrics
// rollup.
func TestNewPlaneFacade(t *testing.T) {
	pl, err := kubefence.NewPlane(kubefence.PlaneConfig{
		Replicas:  2,
		Upstream:  "http://upstream.invalid",
		Transport: echoTransport{},
		CacheSize: 64,
		ProxyUser: "kubefence-proxy",
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := kubefence.LoadBuiltinChart("nginx")
	if err != nil {
		t.Fatal(err)
	}
	policy, err := kubefence.GeneratePolicy(c, kubefence.Options{Workload: "nginx"})
	if err != nil {
		t.Fatal(err)
	}
	sel := kubefence.Selector{
		Namespace:    "nginx",
		ClusterKinds: registry.ClusterScopedKinds(policy.AllowedKinds()),
	}
	if err := policy.RegisterOn(pl, sel); err != nil {
		t.Fatal(err)
	}
	gen1, err := pl.Generation("nginx")
	if err != nil {
		t.Fatal(err)
	}
	if err := policy.SwapOn(pl); err != nil {
		t.Fatal(err)
	}
	gen2, err := pl.Generation("nginx")
	if err != nil {
		t.Fatal(err)
	}
	if gen2 <= gen1 {
		t.Errorf("SwapOn did not advance the generation: %d -> %d", gen1, gen2)
	}

	for _, ev := range chartEvents(t, "nginx", c, 1) {
		status, _ := roundTrip(t, pl, ev)
		want := http.StatusOK
		if ev.ExpectBlocked {
			want = http.StatusForbidden
		}
		if status != want {
			t.Fatalf("%s %s (attack=%v): got %d, want %d",
				ev.Method, ev.Path, ev.ExpectBlocked, status, want)
		}
	}

	m := pl.Metrics()
	if m.Requests == 0 {
		t.Error("tier metrics recorded no requests")
	}
	if m.PublishesStarted != m.PublishesCompleted {
		t.Errorf("publish window not closed: started=%d completed=%d",
			m.PublishesStarted, m.PublishesCompleted)
	}
	if len(m.Replicas) != 2 {
		t.Fatalf("metrics rollup has %d replicas, want 2", len(m.Replicas))
	}

	// Permanent-failure sentinels surface through the facade.
	if err := pl.Swap("ghost", policy.Validator()); !errors.Is(err, kubefence.ErrUnknownWorkload) {
		t.Errorf("Swap(ghost) = %v, want ErrUnknownWorkload", err)
	}
}

// TestNewPlaneWeightedPlacementFacade exercises the load-aware
// placement surface end to end through the facade: construction with
// PlacementWeighted, an explicit Rebalance after skewed traffic, the
// report types, and the placement fields in the metrics rollup.
func TestNewPlaneWeightedPlacementFacade(t *testing.T) {
	pl, err := kubefence.NewPlane(kubefence.PlaneConfig{
		Replicas:           2,
		Upstream:           "http://upstream.invalid",
		Transport:          echoTransport{},
		CacheSize:          64,
		ProxyUser:          "kubefence-proxy",
		Placement:          kubefence.PlacementWeighted,
		RebalanceThreshold: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	c, err := kubefence.LoadBuiltinChart("nginx")
	if err != nil {
		t.Fatal(err)
	}
	namespaces := []string{"team-a", "team-b", "team-c", "team-d", "team-e", "team-f"}
	events := make(map[string][]replay.Event, len(namespaces))
	for _, ns := range namespaces {
		policy, err := kubefence.GeneratePolicy(c, kubefence.Options{Workload: ns})
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Register(ns, kubefence.Selector{Namespace: ns}, policy.Validator()); err != nil {
			t.Fatal(err)
		}
		for _, ev := range chartEvents(t, ns, c, 1) {
			if !ev.ExpectBlocked {
				events[ns] = append(events[ns], ev)
			}
		}
	}

	// Skew the load hard onto one namespace, then rebalance.
	for i := 0; i < 40; i++ {
		for _, ns := range namespaces {
			reps := 1
			if ns == namespaces[0] {
				reps = 8
			}
			for r := 0; r < reps; r++ {
				ev := events[ns][i%len(events[ns])]
				if status, body := roundTrip(t, pl, ev); status != http.StatusOK {
					t.Fatalf("benign %s %s: got %d: %s", ev.Method, ev.Path, status, body)
				}
			}
		}
	}
	var report kubefence.RebalanceReport
	report, err = pl.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if report.Placement != kubefence.PlacementWeighted {
		t.Errorf("report placement = %q, want weighted", report.Placement)
	}
	if report.ImbalanceAfter > report.ImbalanceBefore {
		t.Errorf("rebalance worsened imbalance: %.2f -> %.2f",
			report.ImbalanceBefore, report.ImbalanceAfter)
	}
	var moved kubefence.ShardMove
	if len(report.Moves) > 0 {
		moved = report.Moves[0]
		if moved.From == moved.To || len(moved.Workloads) == 0 {
			t.Errorf("malformed shard move: %+v", moved)
		}
	}

	m := pl.Metrics()
	if m.Placement != string(kubefence.PlacementWeighted) {
		t.Errorf("tier metrics placement = %q, want weighted", m.Placement)
	}
	if m.Rebalances == 0 {
		t.Error("tier metrics recorded no rebalance")
	}
	if m.PublishesStarted != m.PublishesCompleted {
		t.Errorf("publish window not closed: started=%d completed=%d",
			m.PublishesStarted, m.PublishesCompleted)
	}
	shards := 0
	for _, rm := range m.Replicas {
		shards += rm.AssignedShards
	}
	if shards != len(namespaces) {
		t.Errorf("assigned shards sum to %d, want %d", shards, len(namespaces))
	}

	// Enforcement still holds on the rebalanced tier.
	for _, ev := range chartEvents(t, namespaces[0], c, 1) {
		status, _ := roundTrip(t, pl, ev)
		want := http.StatusOK
		if ev.ExpectBlocked {
			want = http.StatusForbidden
		}
		if status != want {
			t.Fatalf("%s %s (attack=%v): got %d, want %d",
				ev.Method, ev.Path, ev.ExpectBlocked, status, want)
		}
	}
}
