package proxy

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/learn"
	"repro/internal/object"
	"repro/internal/registry"
)

// TestRolloutModesEndToEnd drives one workload through the full
// learn → shadow → enforce lifecycle over real HTTP: learn-mode traffic
// is forwarded and mined, shadow-mode would-denies are recorded but
// forwarded, and the promoted policy denies what it never observed.
func TestRolloutModesEndToEnd(t *testing.T) {
	var upstreamHits int
	var mu sync.Mutex
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		upstreamHits++
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer upstream.Close()

	reg := registry.New(registry.Config{CacheSize: 64})
	ctl := learn.NewController(reg, learn.GateConfig{
		MinLearnRequests:  4,
		MinShadowRequests: 4,
	})
	if _, err := ctl.AddWorkload("web", registry.Selector{Namespace: "ns"}, learn.Options{}); err != nil {
		t.Fatal(err)
	}

	var tapped []string
	var shadowRecs []ViolationRecord
	p, err := New(Config{
		Upstream: upstream.URL,
		Registry: reg,
		Tap: func(workload, user, method, path string, obj object.Object) {
			mu.Lock()
			tapped = append(tapped, workload+" "+method+" "+obj.Kind())
			mu.Unlock()
		},
		OnShadowViolation: func(rec ViolationRecord) {
			mu.Lock()
			shadowRecs = append(shadowRecs, rec)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	defer ts.Close()

	benign := map[string]any{
		"apiVersion": "v1",
		"kind":       "ConfigMap",
		"metadata":   map[string]any{"name": "cm", "namespace": "ns"},
		"data":       map[string]any{"key": "value"},
	}
	post := func(obj map[string]any) int {
		t.Helper()
		body, err := json.Marshal(obj)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/api/v1/namespaces/ns/configmaps",
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Learn phase: everything forwards.
	for i := 0; i < 5; i++ {
		if code := post(benign); code != http.StatusOK {
			t.Fatalf("learn-mode request denied: %d", code)
		}
	}
	if trs := ctl.Tick(); len(trs) != 1 || trs[0].To != registry.ModeShadow {
		t.Fatalf("expected learn→shadow, got %+v", trs)
	}

	// Shadow phase: a never-observed object would be denied, but is
	// forwarded — and the miner learns it through the feedback loop.
	novel := map[string]any{
		"apiVersion": "v1",
		"kind":       "ConfigMap",
		"metadata":   map[string]any{"name": "cm", "namespace": "ns"},
		"data":       map[string]any{"key": "value"},
		"binaryData": map[string]any{"blob": "AAAA"},
	}
	if code := post(novel); code != http.StatusOK {
		t.Fatalf("shadow mode must forward would-denied requests, got %d", code)
	}
	mu.Lock()
	nShadow := len(shadowRecs)
	mu.Unlock()
	if nShadow != 1 {
		t.Fatalf("shadow records = %d", nShadow)
	}
	e, _ := reg.Entry("web")
	if e.Metrics().Denied != 0 {
		t.Fatal("shadow verdict bumped the denied metric")
	}
	if got := e.ShadowStats().Denied; got != 1 {
		t.Fatalf("entry shadow denials = %d", got)
	}

	// The controller publishes the grown candidate; a clean window then
	// promotes.
	ctl.Tick()
	for i := 0; i < 5; i++ {
		if code := post(novel); code != http.StatusOK {
			t.Fatalf("shadow-mode request denied: %d", code)
		}
	}
	trs := ctl.Tick()
	if len(trs) != 1 || trs[0].To != registry.ModeEnforce {
		t.Fatalf("expected shadow→enforce, got %+v (stats %+v)", trs, e.ShadowStats())
	}

	// Enforce phase: benign still flows, the unobserved field is denied.
	if code := post(novel); code != http.StatusOK {
		t.Fatalf("benign denied after promotion: %d", code)
	}
	attack := map[string]any{
		"apiVersion": "v1",
		"kind":       "ConfigMap",
		"metadata":   map[string]any{"name": "cm", "namespace": "ns"},
		"data":       map[string]any{"key": "value"},
		"immutable":  true,
	}
	if code := post(attack); code != http.StatusForbidden {
		t.Fatalf("unobserved field not denied after promotion: %d", code)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(tapped) == 0 || tapped[0] != "web POST ConfigMap" {
		t.Fatalf("tap records = %v", tapped)
	}
	if p.Metrics().Shadowed != 1 {
		t.Fatalf("proxy shadowed metric = %d", p.Metrics().Shadowed)
	}
}
