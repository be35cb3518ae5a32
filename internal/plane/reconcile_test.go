package plane

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/object"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/validator"
)

// probe is one request the interleaving test places at every step of a
// reconcile: the statuses it may get while the publish window is open
// and the one it must get once the control-plane call has returned.
type probe struct {
	path   string
	body   []byte
	benign bool
	during []int
	after  int
}

const noPolicy = "no KubeFence policy registered"

func (p probe) check(t *testing.T, pl *Plane, when string, allowed ...int) {
	t.Helper()
	w := post(t, pl, p.path, p.body)
	if p.benign && strings.Contains(w.Body.String(), noPolicy) {
		t.Errorf("%s: benign %s routed to a replica without its policy: %s", when, p.path, w.Body)
	}
	if !p.benign && w.Code/100 == 2 {
		t.Errorf("%s: attack on %s forwarded (status %d)", when, p.path, w.Code)
	}
	for _, code := range allowed {
		if w.Code == code {
			return
		}
	}
	t.Errorf("%s: %s benign=%v: status %d, want one of %v: %s", when, p.path, p.benign, w.Code, allowed, w.Body)
}

// TestReconcileInterleavings places a benign and an attack request at
// every step of the publish primitive — after each replica install,
// after each cache handoff, just before and just after the route table
// is stored — for every kind of control-plane call that reconciles. The
// data path takes no control-plane lock, so the hook can drive it while
// the call is in flight. At every step the attack is never forwarded,
// the benign body never lands on a replica that lacks its policy, and
// the verdict is the old or the new generation's; once the call has
// returned it is the new one's.
func TestReconcileInterleavings(t *testing.T) {
	namespaces := []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"}
	benign, attack, evil := podBody(false, img), podBody(true, img), podBody(false, "docker.io/evil:1")
	// fleet registers one namespaced workload per namespace and returns
	// the steady-state probes: benign allowed, attack denied, throughout.
	fleet := func(t *testing.T, pl *Plane) []probe {
		var probes []probe
		for _, ns := range namespaces {
			if err := pl.Register("wl-"+ns, registry.Selector{Namespace: ns}, policyFor(t, "wl-"+ns, false, img)); err != nil {
				t.Fatal(err)
			}
			path := "/api/v1/namespaces/" + ns + "/pods"
			probes = append(probes,
				probe{path: path, body: benign, benign: true, during: []int{200}, after: 200},
				probe{path: path, body: attack, during: []int{403}, after: 403})
		}
		return probes
	}
	shedding := func(probes []probe) []probe {
		for i := range probes {
			probes[i].during = append(probes[i].during, http.StatusServiceUnavailable)
		}
		return probes
	}

	scenarios := []struct {
		name  string
		steps []string // hook steps that must have been seen
		build func(t *testing.T) (*Plane, []probe, func() error)
	}{
		{
			// A broadcast workload has every replica as an owner, so the
			// window really is mixed: some replicas serve v2 while others
			// still serve v1.
			name:  "swap of a broadcast workload",
			steps: []string{"install", "before-route-flip", "after-route-flip"},
			build: func(t *testing.T) (*Plane, []probe, func() error) {
				pl := newTestPlane(t, 3, Config{})
				if err := pl.Register("pods", registry.Selector{Kinds: []string{"Pod"}}, policyFor(t, "pods", false, img)); err != nil {
					t.Fatal(err)
				}
				var probes []probe
				for _, ns := range namespaces {
					path := "/api/v1/namespaces/" + ns + "/pods"
					probes = append(probes,
						probe{path: path, body: benign, benign: true, during: []int{200, 403}, after: 403},
						probe{path: path, body: attack, benign: true, during: []int{200, 403}, after: 200},
						probe{path: path, body: evil, during: []int{403}, after: 403})
				}
				return pl, probes, func() error { return pl.Swap("pods", policyFor(t, "pods", true, img)) }
			},
		},
		{
			name:  "kill",
			steps: []string{"install", "before-route-flip", "after-route-flip"},
			build: func(t *testing.T) (*Plane, []probe, func() error) {
				pl := newTestPlane(t, 3, Config{})
				probes := fleet(t, pl)
				// Until the table flips, requests still routed to the dead
				// replica shed 503 — fail closed, never a verdict it lost.
				return pl, shedding(probes), func() error { return pl.Kill(1) }
			},
		},
		{
			// A swap lands while the replica is dead; the rejoining replica
			// must serve the swapped generation from its first request.
			name:  "restart resync after a swap it missed",
			steps: []string{"install", "before-route-flip", "after-route-flip"},
			build: func(t *testing.T) (*Plane, []probe, func() error) {
				pl := newTestPlane(t, 3, Config{})
				probes := fleet(t, pl)
				if err := pl.Kill(1); err != nil {
					t.Fatal(err)
				}
				for i, ns := range namespaces {
					if err := pl.Swap("wl-"+ns, policyFor(t, "wl-"+ns, true, img)); err != nil {
						t.Fatal(err)
					}
					probes[2*i].body, probes[2*i+1].body = attack, benign
				}
				return pl, probes, func() error { return pl.Restart(1) }
			},
		},
		{
			// No Kill first: Restart itself must take the replica out of
			// the routing before it swaps in the empty registry.
			name:  "restart of an active replica",
			steps: []string{"install", "before-route-flip", "after-route-flip"},
			build: func(t *testing.T) (*Plane, []probe, func() error) {
				pl := newTestPlane(t, 3, Config{})
				return pl, shedding(fleet(t, pl)), func() error { return pl.Restart(1) }
			},
		},
		{
			name:  "drain with cache handoff",
			steps: []string{"install", "handoff", "before-route-flip", "after-route-flip"},
			build: func(t *testing.T) (*Plane, []probe, func() error) {
				pl := newTestPlane(t, 3, Config{CacheSize: 64})
				probes := fleet(t, pl)
				for _, p := range probes {
					p.check(t, pl, "warm-up", p.after)
				}
				owners, err := pl.Owners("wl-n1")
				if err != nil || len(owners) != 1 {
					t.Fatalf("Owners(wl-n1) = %v, %v", owners, err)
				}
				return pl, probes, func() error { return pl.Drain(owners[0]) }
			},
		},
		{
			name:  "weighted shard move",
			steps: []string{"install", "handoff", "before-route-flip", "after-route-flip"},
			build: func(t *testing.T) (*Plane, []probe, func() error) {
				pl, nss, _ := skewedPlane(t, 2, Config{
					CacheSize: 256, Placement: PlacementWeighted, RebalanceThreshold: 0.2,
				}, 8, 200)
				var probes []probe
				for _, ns := range nss {
					path := "/api/v1/namespaces/" + ns + "/pods"
					probes = append(probes,
						probe{path: path, body: benign, benign: true, during: []int{200}, after: 200},
						probe{path: path, body: attack, during: []int{403}, after: 403})
				}
				return pl, probes, func() error {
					report, err := pl.Rebalance()
					if err == nil && len(report.Moves) == 0 {
						err = fmt.Errorf("skewed tier rebalanced with zero moves")
					}
					return err
				}
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			pl, probes, call := sc.build(t)
			seen := map[string]int{}
			pl.stepHook = func(step string) {
				seen[step]++
				if tm := pl.publishesStarted.Load() - pl.publishesCompleted.Load(); tm != 1 {
					t.Errorf("step %s: %d publish windows open, want exactly 1", step, tm)
				}
				for _, p := range probes {
					p.check(t, pl, fmt.Sprintf("step %s #%d", step, seen[step]), p.during...)
				}
			}
			err := call()
			pl.stepHook = nil
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range sc.steps {
				if seen[step] == 0 {
					t.Errorf("the call never reached step %q (saw %v)", step, seen)
				}
			}
			for _, p := range probes {
				p.check(t, pl, "after the call returned", p.after)
			}
			if tm := pl.Metrics(); tm.PublishesStarted != tm.PublishesCompleted {
				t.Errorf("publish window open at rest: %d started, %d completed", tm.PublishesStarted, tm.PublishesCompleted)
			}
		})
	}
}

// TestPlaneFailedRegistrationLeavesNoTrace pins both halves of a failed
// registration: the preconditions (shared by every Register* entry
// point) reject a tier-wide conflict before anything changes, and a
// first publish that fails for a reason only a replica's registry knows
// is rolled back — desired state, pins and replica copies — so a
// corrected retry succeeds.
func TestPlaneFailedRegistrationLeavesNoTrace(t *testing.T) {
	pl := newTestPlane(t, 3, Config{})
	claims := func(ns string) registry.Selector {
		return registry.Selector{Namespace: ns, ClusterKinds: []string{"ClusterRole"}}
	}
	if err := pl.RegisterLearning("a", claims("a"), nil); err != nil {
		t.Fatal(err)
	}
	// The cluster-kind claim is tier-unique for learning workloads too.
	err := pl.RegisterLearning("b", claims("b"), nil)
	if err == nil || !strings.Contains(err.Error(), "already claimed by workload a") {
		t.Fatalf("conflicting RegisterLearning = %v, want a cluster-kind conflict", err)
	}
	unchanged := func(when string, want ...string) {
		t.Helper()
		if got := pl.Workloads(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Workloads() = %v, want %v", when, got, want)
		}
		for i := 0; i < pl.Replicas(); i++ {
			for _, w := range []string{"b", ""} {
				if _, ok := pl.ReplicaWorkloadMetrics(i, w); ok && !slices.Contains(want, w) {
					t.Errorf("%s: replica %d holds a copy of workload %q", when, i, w)
				}
			}
		}
	}
	unchanged("after the rejected registration", "a")
	if err := pl.RegisterLearning("b", registry.Selector{Namespace: "b"}, nil); err != nil {
		t.Fatalf("corrected retry: %v", err)
	}

	// An empty workload name passes the tier's preconditions and is
	// refused by the replica's registry: the first publish fails.
	if err := pl.RegisterPinned("", registry.Selector{Namespace: "x"}, policyFor(t, "x", false, img), 1); err == nil {
		t.Fatal("registering an empty workload name succeeded")
	}
	unchanged("after the failed first publish", "a", "b")
	if err := pl.RegisterPinned("x", registry.Selector{Namespace: "x"}, policyFor(t, "x", false, img), 0); err != nil {
		t.Fatalf("the failed registration kept its pin: %v", err)
	}
	if w := post(t, pl, "/api/v1/namespaces/x/pods", podBody(false, img)); w.Code != http.StatusOK {
		t.Errorf("request for the re-pinned shard: status %d: %s", w.Code, w.Body)
	}
	if tm := pl.Metrics(); tm.PublishesStarted != tm.PublishesCompleted {
		t.Errorf("publish window open: %d started, %d completed", tm.PublishesStarted, tm.PublishesCompleted)
	}
}

func TestPlaneWorkloadsSorted(t *testing.T) {
	pl := newTestPlane(t, 2, Config{})
	for _, w := range []string{"zeta", "alpha", "mid", "beta", "omega", "gamma"} {
		if err := pl.RegisterLearning(w, registry.Selector{Namespace: w}, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alpha", "beta", "gamma", "mid", "omega", "zeta"}
	if got := pl.Workloads(); !reflect.DeepEqual(got, want) {
		t.Errorf("Workloads() = %v, want %v", got, want)
	}
}

// TestRoutingEqualsResolution drives one table of requests through a
// sharded plane and through a standalone proxy holding the whole fleet,
// and asserts the replica the plane picks resolves the same workload —
// or fails closed with the same status and body — as the standalone
// proxy. The plane routes on the proxy's own front-end value, so the
// two can only disagree if a replica lacks a policy its shard key
// routes to it.
func TestRoutingEqualsResolution(t *testing.T) {
	pl := newTestPlane(t, 4, Config{})
	reg := registry.New(registry.Config{})
	selectors := map[string]registry.Selector{
		"wl-alpha": {Namespace: "alpha"},
		"wl-beta":  {Namespace: "beta"},
		"wl-gamma": {Namespace: "gamma"},
		"wl-delta": {Namespace: "delta", ClusterKinds: []string{"ClusterRole"}},
		"wl-eps":   {Namespace: "eps"},
		"wl-zeta":  {Namespace: "zeta"},
	}
	for w, sel := range selectors {
		// The tenant's pods may name their namespace in the body.
		manifest := object.Object{
			"kind":     "Pod",
			"metadata": map[string]any{"name": "p", "namespace": sel.Namespace},
			"spec": map[string]any{
				"hostNetwork": false,
				"containers":  []any{map[string]any{"name": "c", "image": img}},
			},
		}
		pol, err := validator.Build([]object.Object{manifest}, validator.BuildOptions{Workload: w})
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Register(w, sel, pol); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Register(w, sel, pol); err != nil {
			t.Fatal(err)
		}
	}
	alone, err := proxy.New(proxy.Config{Upstream: "http://upstream.invalid", Transport: okTransport{}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	spec := `,"spec":{"hostNetwork":false,"containers":[{"name":"c","image":"` + img + `"}]}}`
	yamlSpec := "spec:\n  hostNetwork: false\n  containers:\n  - name: c\n    image: " + img + "\n"

	tests := []struct {
		name, contentType, path, body string
		workload                      string // "" = no workload is charged
		code                          int
	}{
		{"scannable json", "application/json", "/api/v1/pods",
			`{"kind":"Pod","metadata":{"name":"p","namespace":"alpha"}` + spec, "wl-alpha", 200},
		{"body namespace wins over path", "application/json", "/api/v1/namespaces/beta/pods",
			`{"kind":"Pod","metadata":{"name":"p","namespace":"gamma"}` + spec, "wl-gamma", 200},
		{"scannable yaml", "application/yaml", "/api/v1/pods",
			"kind: Pod\nmetadata:\n  name: p\n  namespace: beta\n" + yamlSpec, "wl-beta", 200},
		{"yaml flow collection decodes", "application/yaml", "/api/v1/pods",
			"kind: Pod\nmetadata: {name: p, namespace: eps}\n" + yamlSpec, "wl-eps", 200},
		{"yaml anchor is undecodable", "text/yaml", "/api/v1/namespaces/zeta/pods",
			"kind: Pod\nmetadata:\n  name: &n p\n  namespace: zeta\n" + yamlSpec, "", 403},
		{"undecodable body", "application/json", "/api/v1/namespaces/alpha/pods",
			`{"kind":"Pod",`, "", 403},
		{"unsupported content type", "application/xml", "/api/v1/namespaces/alpha/pods",
			`<pod/>`, "", 415},
		{"namespace only in the url path", "application/json", "/api/v1/namespaces/gamma/pods",
			`{"kind":"Pod","metadata":{"name":"p"}` + spec, "wl-gamma", 200},
		{"cluster-scoped kind with no namespace", "application/json", "/apis/rbac.authorization.k8s.io/v1/clusterroles",
			`{"kind":"ClusterRole","metadata":{"name":"cr"},"rules":[]}`, "wl-delta", 403},
		{"namespace nobody claims", "application/json", "/api/v1/namespaces/nobody/pods",
			`{"kind":"Pod","metadata":{"name":"p"}` + spec, "", 403},
	}
	charged := func(m map[string]registry.Metrics, before map[string]uint64) string {
		var out []string
		for w, wm := range m {
			if wm.Requests != before[w] {
				out = append(out, w)
			}
		}
		return strings.Join(out, ",")
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			send := func(h http.Handler) *httptest.ResponseRecorder {
				req := httptest.NewRequest(http.MethodPost, tt.path, strings.NewReader(tt.body))
				req.Header.Set("Content-Type", tt.contentType)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				return rec
			}
			aloneBefore := map[string]uint64{}
			for w, m := range reg.Metrics() {
				aloneBefore[w] = m.Requests
			}
			routedBefore := pl.Metrics().Replicas
			tierBefore := make([]map[string]uint64, pl.Replicas())
			for i := range tierBefore {
				tierBefore[i] = map[string]uint64{}
				for w := range selectors {
					if m, ok := pl.ReplicaWorkloadMetrics(i, w); ok {
						tierBefore[i][w] = m.Requests
					}
				}
			}

			want, got := send(alone), send(pl)
			if want.Code != tt.code {
				t.Fatalf("standalone proxy: status %d, want %d: %s", want.Code, tt.code, want.Body)
			}
			if got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Errorf("plane answered %d %s; standalone proxy %d %s", got.Code, got.Body, want.Code, want.Body)
			}
			if w := charged(reg.Metrics(), aloneBefore); w != tt.workload {
				t.Fatalf("standalone proxy charged %q, want %q", w, tt.workload)
			}
			// Exactly one replica took the request, and it charged the
			// same workload.
			picked := -1
			for i, rm := range pl.Metrics().Replicas {
				if rm.Routed != routedBefore[i].Routed {
					if picked >= 0 {
						t.Fatalf("replicas %d and %d both took the request", picked, i)
					}
					picked = i
				}
			}
			if picked < 0 {
				t.Fatal("no replica took the request")
			}
			after := map[string]registry.Metrics{}
			for w := range selectors {
				if m, ok := pl.ReplicaWorkloadMetrics(picked, w); ok {
					after[w] = m
				}
			}
			if w := charged(after, tierBefore[picked]); w != tt.workload {
				t.Errorf("replica %d charged %q, the standalone proxy %q", picked, w, tt.workload)
			}
		})
	}
}
