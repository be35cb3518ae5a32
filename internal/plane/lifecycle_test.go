package plane

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/object"
	"repro/internal/proxy"
	"repro/internal/registry"
)

// recordingObserver collects the objects a learning workload's traffic
// feeds it.
type recordingObserver struct {
	mu   sync.Mutex
	seen []object.Object
}

func (o *recordingObserver) Observe(obj object.Object) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seen = append(o.seen, obj)
}

func TestPlaneLearningDeregisterLifecycle(t *testing.T) {
	pl := newTestPlane(t, 2, Config{})

	// A learning workload has no policy: traffic forwards and feeds the
	// observer on the owning replica.
	obs := &recordingObserver{}
	if err := pl.RegisterLearning("novel", registry.Selector{Namespace: "novel"}, obs); err != nil {
		t.Fatal(err)
	}
	if m, err := pl.Mode("novel"); err != nil || m != registry.ModeLearn {
		t.Fatalf("Mode(novel) = %v, %v; want ModeLearn", m, err)
	}
	if w := post(t, pl, "/api/v1/namespaces/novel/pods", podBody(true, "docker.io/evil:1")); w.Code != http.StatusOK {
		t.Fatalf("learn-mode request = %d, want 200", w.Code)
	}
	obs.mu.Lock()
	fed := len(obs.seen)
	obs.mu.Unlock()
	if fed != 1 {
		t.Fatalf("observer saw %d objects, want 1", fed)
	}
	if err := pl.RegisterLearning("novel", registry.Selector{}, obs); err == nil {
		t.Error("duplicate RegisterLearning should fail")
	}

	// Enforce → Demote back to shadow, tier-wide.
	if err := pl.Register("web", registry.Selector{Namespace: "web"}, policyFor(t, "web", false, "docker.io/web:1")); err != nil {
		t.Fatal(err)
	}
	if err := pl.Demote("web"); err != nil {
		t.Fatal(err)
	}
	if m, _ := pl.Mode("web"); m != registry.ModeShadow {
		t.Fatalf("Mode(web) after Demote = %v, want ModeShadow", m)
	}
	// Shadowed violations forward instead of denying.
	if w := post(t, pl, "/api/v1/namespaces/web/pods", podBody(true, "docker.io/evil:1")); w.Code != http.StatusOK {
		t.Fatalf("shadow-mode violation = %d, want 200 (forwarded)", w.Code)
	}

	if got := pl.Replicas(); got != 2 {
		t.Fatalf("Replicas() = %d, want 2", got)
	}
	ws := pl.Workloads()
	if len(ws) != 2 {
		t.Fatalf("Workloads() = %v, want 2 entries", ws)
	}

	// Deregister removes the workload everywhere; its traffic then fails
	// closed at the replica (no governing policy).
	if !pl.Deregister("novel") {
		t.Fatal("Deregister(novel) = false, want true")
	}
	if pl.Deregister("novel") {
		t.Fatal("second Deregister(novel) = true, want false")
	}
	if _, err := pl.Mode("novel"); err == nil {
		t.Error("Mode after Deregister should fail")
	}
	if w := post(t, pl, "/api/v1/namespaces/novel/pods", podBody(false, "docker.io/x:1")); w.Code != http.StatusForbidden {
		t.Fatalf("deregistered workload's traffic = %d, want 403 (fail closed)", w.Code)
	}
}

func TestPlaneStateAndStateString(t *testing.T) {
	pl := newTestPlane(t, 2, Config{})
	if _, err := pl.State(-1); err == nil {
		t.Error("State(-1) should fail")
	}
	if _, err := pl.State(2); err == nil {
		t.Error("State(2) on a 2-replica tier should fail")
	}
	if s, err := pl.State(0); err != nil || s != ReplicaActive {
		t.Fatalf("State(0) = %v, %v; want ReplicaActive", s, err)
	}
	for state, want := range map[ReplicaState]string{
		ReplicaActive:   "active",
		ReplicaDraining: "draining",
		ReplicaDown:     "down",
		ReplicaState(9): "ReplicaState(9)",
	} {
		if got := state.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int32(state), got, want)
		}
	}
}

func TestRouteKeyDerivation(t *testing.T) {
	mkReq := func(method, path, contentType, body string) *http.Request {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		return req
	}
	tests := []struct {
		name        string
		method      string
		path        string
		contentType string
		body        string
		want        string
	}{
		{
			name:   "json body namespace wins over path",
			method: "POST", path: "/api/v1/namespaces/urlns/pods", contentType: "application/json",
			body: `{"kind":"Pod","metadata":{"name":"p","namespace":"bodyns"}}`,
			want: "ns/bodyns",
		},
		{
			name:   "block yaml body namespace",
			method: "POST", path: "/api/v1/pods", contentType: "application/yaml",
			body: "kind: Pod\nmetadata:\n  name: p\n  namespace: yns\n",
			want: "ns/yns",
		},
		{
			name:   "flow yaml falls back to decode",
			method: "POST", path: "/api/v1/pods", contentType: "application/yaml",
			body: "kind: Pod\nmetadata: {name: p, namespace: flowns}\n",
			want: "ns/flowns",
		},
		{
			name:   "cluster-scoped body routes by kind",
			method: "POST", path: "/apis/rbac.authorization.k8s.io/v1/clusterroles", contentType: "application/json",
			body: `{"kind":"ClusterRole","metadata":{"name":"cr"}}`,
			want: "kind/ClusterRole",
		},
		{
			name:   "undecodable body uses path namespace",
			method: "POST", path: "/api/v1/namespaces/urlns/pods", contentType: "application/json",
			body: "{not json",
			want: "ns/urlns",
		},
		{
			name:   "uninspectable method uses path namespace",
			method: "DELETE", path: "/api/v1/namespaces/delns/pods/p", contentType: "",
			body: `{"kind":"Pod","metadata":{"namespace":"ignored"}}`,
			want: "ns/delns",
		},
		{
			name:   "no namespace anywhere falls back to path",
			method: "GET", path: "/healthz", contentType: "",
			want: "path//healthz",
		},
		{
			name:   "unsupported content type skips body inspection",
			method: "POST", path: "/api/v1/namespaces/xmlns/pods", contentType: "application/xml",
			body: `<pod/>`,
			want: "ns/xmlns",
		},
		{
			name:   "scanned body without a namespace uses path namespace",
			method: "POST", path: "/api/v1/namespaces/pathns/pods", contentType: "application/json",
			body: `{"kind":"Pod","metadata":{"name":"p"}}`,
			want: "ns/pathns",
		},
		{
			name:   "unscannable body without a path namespace routes by path",
			method: "POST", path: "/api/v1/pods", contentType: "application/json",
			body: "{not json",
			want: "path//api/v1/pods",
		},
		{
			name:   "key longer than the front door's stack buffer",
			method: "POST", path: "/api/v1/pods", contentType: "application/json",
			body: `{"kind":"Pod","metadata":{"name":"p","namespace":"` + strings.Repeat("n", 200) + `"}}`,
			want: "ns/" + strings.Repeat("n", 200),
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req := mkReq(tt.method, tt.path, tt.contentType, tt.body)
			q := proxy.ReadRequest(req)
			defer q.Release()
			var buf [128]byte
			got := string(shardKey(buf[:0], &q, req.URL.Path))
			if got != tt.want {
				t.Errorf("shardKey = %q, want %q", got, tt.want)
			}
			if s := stringShardKey(&q, req.URL.Path); got != s {
				t.Errorf("shardKey = %q, string-built key %q", got, s)
			}
		})
	}
}

// stringShardKey is the shard key as the front door built it before it
// routed on the scan's bytes: the pair as strings, then a
// concatenation. shardKey must produce it byte for byte.
func stringShardKey(q *proxy.Request, path string) string {
	namespace, kind := q.Target()
	switch {
	case namespace != "":
		return nsKey(namespace)
	case kind != "":
		return kindKey(kind)
	}
	return "path/" + path
}

func TestPlaneErrorSurfaces(t *testing.T) {
	pl := newTestPlane(t, 2, Config{})
	if err := pl.SetMode("ghost", registry.ModeShadow); err == nil ||
		!strings.Contains(err.Error(), "not registered") {
		t.Errorf("SetMode(ghost) = %v, want not-registered error", err)
	}
	if _, err := pl.Owners("ghost"); err == nil {
		t.Error("Owners(ghost) should fail")
	}
	if err := pl.Register("v", registry.Selector{}, nil); err == nil {
		t.Error("Register with nil validator should fail")
	}
	if err := pl.Register("far", registry.Selector{Namespace: "far"},
		policyFor(t, "far", false, "docker.io/f:1")); err != nil {
		t.Fatal(err)
	}
	if err := pl.Register("far", registry.Selector{Namespace: "far2"},
		policyFor(t, "far", false, "docker.io/f:1")); err == nil {
		t.Error("duplicate Register should fail")
	}
}
