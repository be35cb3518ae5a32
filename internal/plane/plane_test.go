package plane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/compile"
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
	held := heldTransport{entered: make(chan struct{}), release: make(chan struct{})}
	pl := newTestPlane(t, 1, Config{Transport: held, MaxInFlight: 2})
	if err := pl.Register("wl", registry.Selector{Namespace: "prod"}, policyFor(t, "wl", false, img)); err != nil {
		t.Fatal(err)
	}
	// Two requests hold both slots inside the upstream round trip; every
	// request that arrives meanwhile is shed (no queueing).
	const holders, n = 2, 16
	heldCodes := make(chan int, holders)
	for i := 0; i < holders; i++ {
		go func() {
			heldCodes <- post(t, pl, "/api/v1/namespaces/prod/pods", podBody(false, img)).Code
		}()
	}
	for i := 0; i < holders; i++ {
		<-held.entered
	}
	for i := holders; i < n; i++ {
		if w := post(t, pl, "/api/v1/namespaces/prod/pods", podBody(false, img)); w.Code != http.StatusTooManyRequests {
			t.Errorf("request %d against a saturated replica: code %d, want 429", i, w.Code)
		}
	}
	if tm := pl.Metrics(); tm.Shed != n-holders {
		t.Errorf("metrics shed %d, want %d", tm.Shed, n-holders)
	}
	close(held.release)
	for i := 0; i < holders; i++ {
		if c := <-heldCodes; c != http.StatusOK {
			t.Errorf("held request: code %d, want 200", c)
		}
	}
	// A shed response is an explicit Status failure, not a silent allow.
	// The benign request holds the only slot inside the upstream round
	// trip until the attack has been answered.
	held2 := heldTransport{entered: make(chan struct{}), release: make(chan struct{})}
	pl2 := newTestPlane(t, 1, Config{Transport: held2, MaxInFlight: 1})
	if err := pl2.Register("wl", registry.Selector{Namespace: "prod"}, policyFor(t, "wl", false, img)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		post(t, pl2, "/api/v1/namespaces/prod/pods", podBody(false, img))
	}()
	<-held2.entered
	w := post(t, pl2, "/api/v1/namespaces/prod/pods", podBody(true, img))
	close(held2.release)
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
		if slices.Contains(owners, 1) {
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
		key := []byte(fmt.Sprintf("ns/namespace-%d", i))
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
	if _, ok := buildRing(nil, 64).lookup([]byte("ns/x")); ok {
		t.Error("empty ring lookup reported ok")
	}
}

// TestHashKeyIsFNV1a pins the inlined hash to hash/fnv's 64-bit FNV-1a
// under the same finalizer: a shard key or virtual node hashed either
// way lands on the same ring point.
func TestHashKeyIsFNV1a(t *testing.T) {
	finalize := func(x uint64) uint64 {
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		return x
	}
	for _, key := range []string{
		"", "a", "ns/default", "ns/tenant-17", "kind/ClusterRole",
		"path//healthz", "replica-0/vnode-0", "replica-3/vnode-63",
		"ns/\x00\xffé", strings.Repeat("k", 300),
	} {
		h := fnv.New64a()
		h.Write([]byte(key))
		if got, want := hashKey([]byte(key)), finalize(h.Sum64()); got != want {
			t.Errorf("hashKey(%q) = %#x, want %#x", key, got, want)
		}
	}
}

// TestPlaneInstallsOneProgram holds a plane publish to one compile:
// after Register and after Swap of a broadcast workload on a 4-replica
// tier, every holder enforces the very program the tier publishes, and
// a swap publishes a new one compiled from the swapped-in validator.
func TestPlaneInstallsOneProgram(t *testing.T) {
	pl := newTestPlane(t, 4, Config{})
	var prev *compile.Program
	check := func(when string, hostNetwork bool) {
		t.Helper()
		prog, err := pl.Program("podwatch")
		if err != nil {
			t.Fatal(err)
		}
		if prog == prev || !prog.MatchRaw(podBody(hostNetwork, img)) || prog.MatchRaw(podBody(!hostNetwork, img)) {
			t.Errorf("%s: the published program was not compiled from the given validator", when)
		}
		prev = prog
		pl.mu.Lock()
		defer pl.mu.Unlock()
		for _, rep := range pl.replicas {
			e, ok := rep.reg.Entry("podwatch")
			if !ok {
				t.Errorf("%s: replica %d holds no copy of a broadcast workload", when, rep.index)
				continue
			}
			if e.Program() != prog {
				t.Errorf("%s: replica %d enforces a program of its own", when, rep.index)
			}
		}
	}
	if err := pl.Register("podwatch", registry.Selector{Kinds: []string{"Pod"}}, policyFor(t, "podwatch", false, img)); err != nil {
		t.Fatal(err)
	}
	check("after Register", false)
	if err := pl.Swap("podwatch", policyFor(t, "podwatch", true, img)); err != nil {
		t.Fatal(err)
	}
	check("after Swap", true)
}

// TestPlaneRollupSurvivesRestart: a restarted replica boots a fresh
// proxy, but the tier's proxy rollup keeps what the retired one served,
// so it still equals the front door's count.
func TestPlaneRollupSurvivesRestart(t *testing.T) {
	pl := newTestPlane(t, 2, Config{})
	if err := pl.Register("wl", registry.Selector{Namespace: "ns"}, policyFor(t, "wl", false, img)); err != nil {
		t.Fatal(err)
	}
	serve := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if w := post(t, pl, "/api/v1/namespaces/ns/pods", podBody(false, img)); w.Code != http.StatusOK {
				t.Fatalf("benign request: code %d, body %s", w.Code, w.Body)
			}
		}
	}
	check := func(when string, want uint64) {
		t.Helper()
		tm := pl.Metrics()
		if tm.Requests != want || tm.Proxy.Requests != tm.Requests {
			t.Errorf("%s: front door %d requests (want %d), replicas saw %d",
				when, tm.Requests, want, tm.Proxy.Requests)
		}
		var routed, served uint64
		for _, rm := range tm.Replicas {
			routed += rm.Routed
			served += rm.Proxy.Requests
		}
		if served != routed {
			t.Errorf("%s: replicas were routed %d requests, their proxies saw %d", when, routed, served)
		}
	}
	serve(5)
	check("before restart", 5)
	owners, err := pl.Owners("wl")
	if err != nil || len(owners) != 1 {
		t.Fatalf("Owners(wl) = %v, %v; want exactly one", owners, err)
	}
	if err := pl.Restart(owners[0]); err != nil {
		t.Fatal(err)
	}
	check("after restarting the owner", 5)
	serve(3)
	check("after serving on the restarted tier", 8)
}
