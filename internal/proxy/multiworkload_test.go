package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/validator"
)

// tenantPolicy builds a policy allowing ConfigMaps whose data has the
// single key named after the tenant — so tenant policies are mutually
// exclusive and misrouting is observable.
func tenantPolicy(t testing.TB, tenant string) *validator.Validator {
	t.Helper()
	v, err := validator.Build([]object.Object{{
		"apiVersion": "v1",
		"kind":       "ConfigMap",
		"metadata":   map[string]any{"name": "cm", "namespace": tenant},
		"data":       map[string]any{tenant: "string"},
	}}, validator.BuildOptions{Workload: tenant})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func tenantConfigMap(tenant, namespace string) object.Object {
	return object.Object{
		"apiVersion": "v1",
		"kind":       "ConfigMap",
		"metadata":   map[string]any{"name": "cm-" + tenant, "namespace": namespace},
		"data":       map[string]any{tenant: "value"},
	}
}

// multiFixture wires client → registry-backed proxy → apiserver.
type multiFixture struct {
	reg     *registry.Registry
	proxy   *Proxy
	proxyTS *httptest.Server
}

func newMultiFixture(t *testing.T, cacheSize int, tenants ...string) *multiFixture {
	t.Helper()
	api, err := apiserver.New(apiserver.Config{
		Store:           store.New(),
		FrontProxyUsers: []string{"kubefence-proxy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	apiTS := httptest.NewServer(api)
	t.Cleanup(apiTS.Close)

	reg := registry.New(registry.Config{CacheSize: cacheSize})
	for _, tenant := range tenants {
		if _, err := reg.Register(tenant, registry.Selector{Namespace: tenant}, tenantPolicy(t, tenant)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := New(Config{
		Upstream:  apiTS.URL,
		Registry:  reg,
		ProxyUser: "kubefence-proxy",
	})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(p)
	t.Cleanup(proxyTS.Close)
	return &multiFixture{reg: reg, proxy: p, proxyTS: proxyTS}
}

func TestMultiWorkloadPerNamespaceResolution(t *testing.T) {
	f := newMultiFixture(t, 0, "alpha", "beta")
	c := client.New(f.proxyTS.URL, client.WithUser("operator"))

	// Each tenant's object is admitted in its own namespace.
	for _, tenant := range []string{"alpha", "beta"} {
		if _, err := c.Create(tenantConfigMap(tenant, tenant)); err != nil {
			t.Fatalf("tenant %s conforming request denied: %v", tenant, err)
		}
	}
	// An alpha-shaped object in beta's namespace is judged by beta's
	// policy and denied — enforcement is per-workload, not global union.
	_, err := c.Create(tenantConfigMap("alpha", "beta"))
	if !client.IsForbidden(err) {
		t.Fatalf("cross-tenant object admitted: %v", err)
	}

	// The denial is attributed to beta.
	viols := f.proxy.Violations()
	if len(viols) != 1 {
		t.Fatalf("violations = %v, want one, charged to beta", viols)
	}
	if rec := viols[0]; rec.Workload != "beta" || rec.Kind != "ConfigMap" {
		t.Errorf("record = %+v", rec)
	}
	// Per-workload metrics saw the traffic.
	m := f.reg.Metrics()
	if m["alpha"].Requests != 1 || m["alpha"].Denied != 0 {
		t.Errorf("alpha metrics = %+v", m["alpha"])
	}
	if m["beta"].Requests != 2 || m["beta"].Denied != 1 {
		t.Errorf("beta metrics = %+v", m["beta"])
	}
}

func TestMultiWorkloadFailsClosed(t *testing.T) {
	f := newMultiFixture(t, 0, "alpha")
	c := client.New(f.proxyTS.URL, client.WithUser("operator"))
	_, err := c.Create(tenantConfigMap("alpha", "unclaimed"))
	if !client.IsForbidden(err) {
		t.Fatalf("request in unclaimed namespace admitted: %v", err)
	}
	viols := f.proxy.Violations()
	if len(viols) != 1 {
		t.Fatalf("violations = %d", len(viols))
	}
	if viols[0].Workload != "" {
		t.Errorf("unattributable denial charged to %q", viols[0].Workload)
	}
}

func TestMultiWorkloadDecisionCache(t *testing.T) {
	f := newMultiFixture(t, 128, "alpha")
	body, err := json.Marshal(tenantConfigMap("alpha", "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	// The same wire bytes re-validated five times — the operator
	// reconcile-loop pattern. Only the first decision runs the validator.
	for i := 0; i < 5; i++ {
		resp, err := http.Post(f.proxyTS.URL+"/api/v1/namespaces/alpha/configmaps",
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusForbidden {
			t.Fatalf("request %d denied", i)
		}
	}
	m := f.reg.Metrics()["alpha"]
	if m.Requests != 5 {
		t.Fatalf("requests = %d, want 5", m.Requests)
	}
	if m.CacheHits != 4 {
		t.Errorf("cache hits = %d, want 4", m.CacheHits)
	}
}

// TestHotSwapUnderLoad swaps the enforced policy while concurrent
// clients stream conforming requests: no request may ever see a nil or
// torn policy, and after the final swap to a denying policy the stream
// is rejected.
func TestHotSwapUnderLoad(t *testing.T) {
	f := newHTTPFixture(t)
	const (
		writers = 6
		perG    = 50
	)
	allowA := testPolicy(t) // the fixture's policy
	allowB := testPolicy(t) // equivalent policy, distinct pointer

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	// Swapper: flip between two equivalent policies continuously,
	// yielding each round so the writers always make progress.
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := allowA
			if i%2 == 1 {
				next = allowB
			}
			if err := f.proxy.Registry().Swap("test", next); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, writers*perG)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := client.New(f.proxyTS.URL, client.WithUser(fmt.Sprintf("operator-%d", g)))
			for i := 0; i < perG; i++ {
				o := goodDeployment()
				_ = object.Set(o, "metadata.name", fmt.Sprintf("web-%d-%d", g, i))
				if _, err := c.Create(o); err != nil {
					errs <- fmt.Errorf("writer %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m := f.proxy.Metrics(); m.Denied != 0 {
		t.Fatalf("conforming traffic denied %d times during hot-swap", m.Denied)
	}

	// A swap to a restrictive policy takes effect for subsequent traffic.
	deny, err := validator.Build([]object.Object{{
		"apiVersion": "v1",
		"kind":       "Secret",
		"metadata":   map[string]any{"name": "s", "namespace": "default"},
	}}, validator.BuildOptions{Workload: "deny"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.proxy.Registry().Swap("test", deny); err != nil {
		t.Fatal(err)
	}
	c := client.New(f.proxyTS.URL, client.WithUser("operator"))
	if _, err := c.Create(goodDeployment()); !client.IsForbidden(err) {
		t.Fatalf("swapped-in policy not enforced: %v", err)
	}
}

func TestRequestNamespace(t *testing.T) {
	tests := []struct {
		path string
		want string
	}{
		{"/api/v1/namespaces/web/configmaps", "web"},
		{"/apis/apps/v1/namespaces/db/deployments/x", "db"},
		{"/api/v1/namespaces/web", "web"},
		{"/api/v1/nodes", ""},
		{"/apis/rbac.authorization.k8s.io/v1/clusterroles", ""},
	}
	for _, tt := range tests {
		if got := requestNamespace(tt.path); got != tt.want {
			t.Errorf("requestNamespace(%q) = %q, want %q", tt.path, got, tt.want)
		}
	}
}

// TestProxyViolationLogIsBounded floods the proxy with denied requests
// and checks the global denial log stays capped (denials are
// attacker-triggerable, so an unbounded log is a memory amplifier).
func TestProxyViolationLogIsBounded(t *testing.T) {
	f := newMultiFixture(t, 0, "alpha")
	for i := 0; i < maxRecords+25; i++ {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/unclaimed/things",
			strings.NewReader(fmt.Sprintf(`{"kind":"ConfigMap","metadata":{"name":"x%d","namespace":"unclaimed"}}`, i)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		f.proxy.ServeHTTP(rec, req)
		if rec.Code != http.StatusForbidden {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	viols := f.proxy.Violations()
	if len(viols) != maxRecords {
		t.Fatalf("log length = %d, want %d", len(viols), maxRecords)
	}
	if got := viols[len(viols)-1].Name; got != fmt.Sprintf("x%d", maxRecords+24) {
		t.Errorf("newest record = %s", got)
	}
	if m := f.proxy.Metrics(); m.Denied != maxRecords+25 {
		t.Errorf("denied counter = %d, want %d", m.Denied, maxRecords+25)
	}
}
