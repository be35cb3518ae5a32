package plane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/registry"
	"repro/internal/validator"
)

// okTransport answers every upstream round trip 200 in-memory.
type okTransport struct{}

func (okTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  make(http.Header),
		Body:    http.NoBody,
		Request: r,
	}, nil
}

// slowTransport sleeps before answering — a bounded-capacity upstream.
type slowTransport struct{ d time.Duration }

func (t slowTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	time.Sleep(t.d)
	return okTransport{}.RoundTrip(r)
}

// heldTransport announces a round trip on entered and holds it until
// release is closed — a slot a test keeps occupied for as long as it
// needs, instead of for a sleep it hopes is long enough.
type heldTransport struct{ entered, release chan struct{} }

func (t heldTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.entered <- struct{}{}
	<-t.release
	return okTransport{}.RoundTrip(r)
}

// policyFor builds a workload policy from one pod manifest.
func policyFor(t *testing.T, workload string, hostNetwork bool, image string) *validator.Validator {
	t.Helper()
	manifest := object.Object{
		"apiVersion": "v1",
		"kind":       "Pod",
		"metadata":   map[string]any{"name": workload},
		"spec": map[string]any{
			"hostNetwork": hostNetwork,
			"containers": []any{map[string]any{
				"name":  "c",
				"image": image,
			}},
		},
	}
	pol, err := validator.Build([]object.Object{manifest}, validator.BuildOptions{Workload: workload})
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func podBody(hostNetwork bool, image string) []byte {
	return []byte(fmt.Sprintf(
		`{"kind":"Pod","metadata":{"name":"p"},"spec":{"hostNetwork":%v,"containers":[{"name":"c","image":%q}]}}`,
		hostNetwork, image))
}

func post(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func newTestPlane(t *testing.T, replicas int, cfg Config) *Plane {
	t.Helper()
	cfg.Replicas = replicas
	if cfg.Upstream == "" {
		cfg.Upstream = "http://upstream.invalid"
	}
	if cfg.Transport == nil {
		cfg.Transport = okTransport{}
	}
	pl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

const img = "docker.io/library/nginx:1.25"

func TestPlaneRoutesAndEnforces(t *testing.T) {
	pl := newTestPlane(t, 4, Config{})
	namespaces := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for _, ns := range namespaces {
		if err := pl.Register("wl-"+ns, registry.Selector{Namespace: ns}, policyFor(t, "wl-"+ns, false, img)); err != nil {
			t.Fatalf("Register %s: %v", ns, err)
		}
	}
	for _, ns := range namespaces {
		path := "/api/v1/namespaces/" + ns + "/pods"
		if w := post(t, pl, path, podBody(false, img)); w.Code != http.StatusOK {
			t.Errorf("benign %s: code %d, body %s", ns, w.Code, w.Body)
		}
		if w := post(t, pl, path, podBody(true, img)); w.Code != http.StatusForbidden {
			t.Errorf("attack %s: code %d, want 403", ns, w.Code)
		}
		// Unpoliced namespaces fail closed.
		if w := post(t, pl, "/api/v1/namespaces/nobody/pods", podBody(false, img)); w.Code != http.StatusForbidden {
			t.Errorf("unpoliced namespace: code %d, want 403", w.Code)
		}
	}
	// Each workload has exactly one owner, and the tier (not one hot
	// replica) holds them collectively.
	ownersSeen := map[int]bool{}
	for _, ns := range namespaces {
		owners, err := pl.Owners("wl-" + ns)
		if err != nil || len(owners) != 1 {
			t.Fatalf("Owners(wl-%s) = %v, %v; want exactly one", ns, owners, err)
		}
		ownersSeen[owners[0]] = true
	}
	if len(ownersSeen) < 2 {
		t.Errorf("6 workloads all landed on one replica; want spread, got %v", ownersSeen)
	}
	tm := pl.Metrics()
	if tm.Requests == 0 || tm.Proxy.Requests != tm.Requests {
		t.Errorf("metrics rollup: front door %d requests, replicas saw %d", tm.Requests, tm.Proxy.Requests)
	}
	if tm.PublishesStarted != tm.PublishesCompleted {
		t.Errorf("publishes: started %d != completed %d at rest", tm.PublishesStarted, tm.PublishesCompleted)
	}
}

func TestPlaneBroadcastSelectors(t *testing.T) {
	pl := newTestPlane(t, 3, Config{})
	// Kind-only selector must be resolvable wherever any request lands.
	if err := pl.Register("podwatch", registry.Selector{Kinds: []string{"Pod"}}, policyFor(t, "podwatch", false, img)); err != nil {
		t.Fatal(err)
	}
	owners, _ := pl.Owners("podwatch")
	if len(owners) != 3 {
		t.Fatalf("broadcast workload owners = %v, want all 3 replicas", owners)
	}
	for _, ns := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		path := "/api/v1/namespaces/" + ns + "/pods"
		if w := post(t, pl, path, podBody(false, img)); w.Code != http.StatusOK {
			t.Errorf("benign ns %s: code %d, body %s", ns, w.Code, w.Body)
		}
		if w := post(t, pl, path, podBody(true, img)); w.Code != http.StatusForbidden {
			t.Errorf("attack ns %s: code %d, want 403", ns, w.Code)
		}
	}
}

func TestPlanePinning(t *testing.T) {
	pl := newTestPlane(t, 4, Config{})
	if err := pl.RegisterPinned("pinned", registry.Selector{Namespace: "vip"}, policyFor(t, "pinned", false, img), 2); err != nil {
		t.Fatal(err)
	}
	if owners, _ := pl.Owners("pinned"); len(owners) != 1 || owners[0] != 2 {
		t.Fatalf("pinned owners = %v, want [2]", owners)
	}
	for i := 0; i < 10; i++ {
		if w := post(t, pl, "/api/v1/namespaces/vip/pods", podBody(false, img)); w.Code != http.StatusOK {
			t.Fatalf("benign pinned: code %d body %s", w.Code, w.Body)
		}
	}
	tm := pl.Metrics()
	if got := tm.Replicas[2].Routed; got != 10 {
		t.Errorf("pinned replica routed %d requests, want 10", got)
	}
	// Pinning requires a shard key.
	err := pl.RegisterPinned("nope", registry.Selector{}, policyFor(t, "nope", false, img), 0)
	if err == nil {
		t.Error("RegisterPinned with wildcard selector succeeded, want error")
	}
}

func TestPlaneSwapPromoteLifecycle(t *testing.T) {
	pl := newTestPlane(t, 3, Config{})
	v1 := policyFor(t, "wl", false, img)
	v2 := policyFor(t, "wl", true, img)
	if err := pl.Register("wl", registry.Selector{Namespace: "prod"}, v1); err != nil {
		t.Fatal(err)
	}
	path := "/api/v1/namespaces/prod/pods"
	if w := post(t, pl, path, podBody(false, img)); w.Code != http.StatusOK {
		t.Fatalf("v1 benign: %d", w.Code)
	}
	if err := pl.Swap("wl", v2); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	// The swap is published tier-wide before it returns: v1's benign
	// body is now a violation, v2's is allowed.
	if w := post(t, pl, path, podBody(false, img)); w.Code != http.StatusForbidden {
		t.Errorf("post-swap old-benign: code %d, want 403", w.Code)
	}
	if w := post(t, pl, path, podBody(true, img)); w.Code != http.StatusOK {
		t.Errorf("post-swap new-benign: code %d, want 200", w.Code)
	}

	// Typed sentinel contract at the tier surface.
	if err := pl.Swap("ghost", v1); !errors.Is(err, registry.ErrUnknownWorkload) {
		t.Errorf("Swap(ghost) = %v, want ErrUnknownWorkload", err)
	}
	gen, err := pl.Generation("wl")
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Promote("wl", gen); !errors.Is(err, registry.ErrNotShadowing) {
		t.Errorf("Promote(enforcing) = %v, want ErrNotShadowing", err)
	}
	if err := pl.SetMode("wl", registry.ModeShadow); err != nil {
		t.Fatal(err)
	}
	// Shadow mode forwards would-deny traffic.
	if w := post(t, pl, path, podBody(false, img)); w.Code != http.StatusOK {
		t.Errorf("shadow would-deny: code %d, want 200 (forwarded)", w.Code)
	}
	if err := pl.Swap("wl", v1); err != nil {
		t.Fatal(err)
	}
	if err := pl.Promote("wl", gen); !errors.Is(err, registry.ErrStaleGeneration) {
		t.Errorf("Promote(stale plane gen) = %v, want ErrStaleGeneration", err)
	}
	gen, _ = pl.Generation("wl")
	if err := pl.Promote("wl", gen); err != nil {
		t.Fatalf("Promote(current gen): %v", err)
	}
	if m, _ := pl.Mode("wl"); m != registry.ModeEnforce {
		t.Errorf("mode after promote = %v", m)
	}
	if w := post(t, pl, path, podBody(true, img)); w.Code != http.StatusForbidden {
		t.Errorf("post-promote v1 attack: code %d, want 403", w.Code)
	}
}

func TestPlaneShedsFailClosed(t *testing.T) {
	pl := newTestPlane(t, 1, Config{
		Transport:   slowTransport{d: 20 * time.Millisecond},
		MaxInFlight: 2,
	})
	if err := pl.Register("wl", registry.Selector{Namespace: "prod"}, policyFor(t, "wl", false, img)); err != nil {
		t.Fatal(err)
	}
	const n = 16
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, pl, "/api/v1/namespaces/prod/pods", podBody(false, img))
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	var ok, shed int
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("unexpected code %d under overload", c)
		}
	}
	if shed == 0 {
		t.Errorf("16 concurrent requests against MaxInFlight=2 with zero queue timeout shed nothing")
	}
	tm := pl.Metrics()
	if tm.Shed != uint64(shed) {
		t.Errorf("metrics shed %d, observed %d", tm.Shed, shed)
	}
	// A shed response is an explicit Status failure, not a silent allow.
	// The benign request holds the only slot inside the upstream round
	// trip until the attack has been answered.
	held := heldTransport{entered: make(chan struct{}), release: make(chan struct{})}
	pl2 := newTestPlane(t, 1, Config{Transport: held, MaxInFlight: 1})
	if err := pl2.Register("wl", registry.Selector{Namespace: "prod"}, policyFor(t, "wl", false, img)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		post(t, pl2, "/api/v1/namespaces/prod/pods", podBody(false, img))
	}()
	<-held.entered
	w := post(t, pl2, "/api/v1/namespaces/prod/pods", podBody(true, img))
	close(held.release)
	<-done
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("attack under saturation: code %d, want 429", w.Code)
	}
	var status struct {
		Kind   string `json:"kind"`
		Reason string `json:"reason"`
		Code   int    `json:"code"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &status); err != nil {
		t.Fatalf("shed body is not JSON: %v (%s)", err, w.Body)
	}
	if status.Kind != "Status" || status.Reason != "KubeFenceTierOverloaded" || status.Code != 429 {
		t.Errorf("shed status = %+v", status)
	}
}

func TestPlaneDrainKillRestart(t *testing.T) {
	pl := newTestPlane(t, 3, Config{})
	namespaces := []string{"a1", "b2", "c3", "d4", "e5", "f6", "g7", "h8", "i9"}
	for _, ns := range namespaces {
		if err := pl.Register("wl-"+ns, registry.Selector{Namespace: ns}, policyFor(t, "wl-"+ns, false, img)); err != nil {
			t.Fatal(err)
		}
	}
	serveAll := func(stage string) {
		t.Helper()
		for _, ns := range namespaces {
			path := "/api/v1/namespaces/" + ns + "/pods"
			if w := post(t, pl, path, podBody(false, img)); w.Code != http.StatusOK {
				t.Errorf("%s: benign %s code %d body %s", stage, ns, w.Code, w.Body)
			}
			if w := post(t, pl, path, podBody(true, img)); w.Code != http.StatusForbidden {
				t.Errorf("%s: attack %s code %d, want 403", stage, ns, w.Code)
			}
		}
	}
	serveAll("3 replicas")

	// Drain: shards move deterministically, traffic keeps flowing.
	if err := pl.Drain(1); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, ns := range namespaces {
		owners, _ := pl.Owners("wl-" + ns)
		if containsInt(owners, 1) {
			t.Errorf("post-drain: wl-%s still owned by drained replica (%v)", ns, owners)
		}
	}
	serveAll("after drain")

	// Kill another: a single survivor carries everything.
	if err := pl.Kill(2); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	serveAll("single survivor")

	// Restart both: the tier recovers, shards rebalance back, and the
	// restarted replicas serve the CURRENT desired state.
	if err := pl.Restart(1); err != nil {
		t.Fatalf("Restart(1): %v", err)
	}
	if err := pl.Restart(2); err != nil {
		t.Fatalf("Restart(2): %v", err)
	}
	serveAll("after restart")
	spread := map[int]bool{}
	for _, ns := range namespaces {
		owners, _ := pl.Owners("wl-" + ns)
		for _, o := range owners {
			spread[o] = true
		}
	}
	if len(spread) < 2 {
		t.Errorf("post-restart ownership not rebalanced: %v", spread)
	}
	tm := pl.Metrics()
	if tm.Resyncs != 2 {
		t.Errorf("resyncs = %d, want 2", tm.Resyncs)
	}
	// Drains and kills are deterministic: the same topology change on a
	// fresh identically-configured plane yields the same assignment.
	pl2 := newTestPlane(t, 3, Config{})
	for _, ns := range namespaces {
		if err := pl2.Register("wl-"+ns, registry.Selector{Namespace: ns}, policyFor(t, "wl-"+ns, false, img)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl2.Drain(1); err != nil {
		t.Fatal(err)
	}
	if err := pl2.Kill(2); err != nil {
		t.Fatal(err)
	}
	if err := pl2.Restart(1); err != nil {
		t.Fatal(err)
	}
	if err := pl2.Restart(2); err != nil {
		t.Fatal(err)
	}
	for _, ns := range namespaces {
		a, _ := pl.Owners("wl-" + ns)
		b, _ := pl2.Owners("wl-" + ns)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("non-deterministic assignment for wl-%s: %v vs %v", ns, a, b)
		}
	}
}

func TestPlaneDownReplicaSheds503(t *testing.T) {
	pl := newTestPlane(t, 1, Config{})
	if err := pl.Register("wl", registry.Selector{Namespace: "prod"}, policyFor(t, "wl", false, img)); err != nil {
		t.Fatal(err)
	}
	if err := pl.Kill(0); err != nil {
		t.Fatal(err)
	}
	w := post(t, pl, "/api/v1/namespaces/prod/pods", podBody(true, img))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("attack against dead tier: code %d, want 503 (fail closed)", w.Code)
	}
	if !strings.Contains(w.Body.String(), "KubeFenceReplicaUnavailable") {
		t.Errorf("503 body = %s", w.Body)
	}
	if err := pl.Restart(0); err != nil {
		t.Fatal(err)
	}
	if w := post(t, pl, "/api/v1/namespaces/prod/pods", podBody(false, img)); w.Code != http.StatusOK {
		t.Errorf("post-restart benign: code %d body %s", w.Code, w.Body)
	}
	if w := post(t, pl, "/api/v1/namespaces/prod/pods", podBody(true, img)); w.Code != http.StatusForbidden {
		t.Errorf("post-restart attack: code %d, want 403", w.Code)
	}
}

func TestRingDeterminismAndReassignment(t *testing.T) {
	r1 := buildRing([]int{0, 1, 2, 3}, 64)
	r2 := buildRing([]int{0, 1, 2, 3}, 64)
	moved := 0
	r3 := buildRing([]int{0, 1, 3}, 64) // replica 2 gone
	perOwner := map[int]int{}
	const keys = 1000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("ns/namespace-%d", i)
		a, _ := r1.lookup(key)
		b, _ := r2.lookup(key)
		if a != b {
			t.Fatalf("ring lookup not deterministic for %s: %d vs %d", key, a, b)
		}
		perOwner[a]++
		c, ok := r3.lookup(key)
		if !ok {
			t.Fatal("3-replica ring empty")
		}
		if c == 2 {
			t.Fatalf("key %s assigned to removed replica", key)
		}
		if a != 2 && c != a {
			moved++
		}
	}
	// Consistent hashing: only the removed replica's keys move.
	if moved > keys/10 {
		t.Errorf("%d/%d keys not owned by the removed replica moved on its removal", moved, keys)
	}
	for idx, n := range perOwner {
		if n < keys/10 {
			t.Errorf("replica %d owns only %d/%d keys — virtual nodes not spreading", idx, n, keys)
		}
	}
	if _, ok := buildRing(nil, 64).lookup("ns/x"); ok {
		t.Error("empty ring lookup reported ok")
	}
}
