// Cross-chart attack matrix: the full 15-entry malicious-specification
// catalog (Table II) fired at every builtin workload through ONE
// multi-workload proxy. This is the scenario-diversity regression net:
// each chart's legitimate objects must be admitted, every attack against
// every chart must be blocked, and each denial must be attributed to the
// tenant whose policy blocked it.
package kubefence_test

import (
	"fmt"
	"net/http/httptest"
	"testing"

	kubefence "repro"
	"repro/internal/apiserver"
	"repro/internal/attacks"
	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/client"
	"repro/internal/operator"
	"repro/internal/store"
)

// multiWorkloadCluster starts an API server fronted by one proxy
// enforcing every builtin workload policy, each scoped to the namespace
// named after its workload.
func multiWorkloadCluster(t *testing.T, cacheSize int) (*kubefence.Registry, string) {
	t.Helper()
	reg, err := kubefence.GenerateRegistry(kubefence.RegistryConfig{CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	api, err := apiserver.New(apiserver.Config{
		Store: store.New(), FrontProxyUsers: []string{"kubefence-proxy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	apiTS := httptest.NewServer(api)
	t.Cleanup(apiTS.Close)
	p, err := kubefence.NewProxy(kubefence.ProxyConfig{
		Upstream: apiTS.URL, Registry: reg, ProxyUser: "kubefence-proxy",
	})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(p)
	t.Cleanup(proxyTS.Close)
	return reg, proxyTS.URL
}

func TestCrossChartAttackMatrix(t *testing.T) {
	reg, proxyURL := multiWorkloadCluster(t, 0)
	catalog := attacks.Catalog()

	for _, name := range charts.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			// Allow outcomes: the operator's own deployment succeeds
			// through the shared proxy.
			op := &operator.Operator{
				Workload: name,
				Chart:    charts.MustLoad(name),
				Client:   client.New(proxyURL, client.WithUser("operator:"+name)),
				Release:  chart.ReleaseOptions{Name: "prod", Namespace: name},
			}
			res, err := op.Deploy()
			if err != nil {
				t.Fatalf("legitimate %s deployment blocked: %v", name, err)
			}
			if res.Objects == 0 {
				t.Fatalf("%s deployed no objects", name)
			}

			// Block outcomes: every applicable catalog attack, crafted
			// from this chart's own rendered output, is denied.
			files, err := charts.MustLoad(name).Render(nil,
				chart.ReleaseOptions{Name: "prod", Namespace: name})
			if err != nil {
				t.Fatal(err)
			}
			legit := chart.Objects(files)
			attacker := client.New(proxyURL, client.WithUser("attacker"))
			entryBefore, _ := reg.Entry(name)
			deniedBefore := entryBefore.Metrics().Denied
			launched := 0
			for _, a := range catalog {
				target, ok := a.SelectTarget(legit)
				if !ok {
					t.Errorf("attack %s: no target in %s manifests", a.ID, name)
					continue
				}
				evil, err := a.Craft(target)
				if err != nil {
					t.Fatalf("attack %s: %v", a.ID, err)
				}
				launched++
				if _, err := attacker.Apply(evil); !client.IsForbidden(err) {
					t.Errorf("attack %s (%s) against %s admitted: %v", a.ID, a.Name, name, err)
				}
			}
			if launched != len(catalog) {
				t.Errorf("launched %d/%d catalog attacks", launched, len(catalog))
			}

			// Every denial is attributed to this tenant's policy.
			entry, ok := reg.Entry(name)
			if !ok {
				t.Fatalf("no registry entry for %s", name)
			}
			denied := entry.Metrics().Denied - deniedBefore
			if denied < uint64(launched) {
				t.Errorf("workload %s denied %d requests, want at least %d",
					name, denied, launched)
			}
		})
	}

	// The matrix exercised all five tenants on one enforcement point.
	if got := reg.Len(); got != len(charts.Names()) {
		t.Fatalf("registry holds %d workloads, want %d", got, len(charts.Names()))
	}
	for name, m := range reg.Metrics() {
		if m.Requests == 0 {
			t.Errorf("workload %s saw no traffic", name)
		}
		if m.Denied == 0 {
			t.Errorf("workload %s blocked no attacks", name)
		}
	}
}

// TestMultiWorkloadIsolation checks that one tenant's policy never
// admits another tenant's objects: a postgresql manifest pushed into the
// nginx namespace must be judged (and denied) by nginx's policy.
func TestMultiWorkloadIsolation(t *testing.T) {
	reg, proxyURL := multiWorkloadCluster(t, 0)
	files, err := charts.MustLoad("postgresql").Render(nil,
		chart.ReleaseOptions{Name: "prod", Namespace: "nginx"})
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(proxyURL, client.WithUser("operator:postgresql"))
	crossTenant := 0
	for _, o := range chart.Objects(files) {
		if o.Namespace() == "" {
			continue // cluster-scoped objects are claimed by kind, not namespace
		}
		kind := o.Kind()
		if _, err := c.Apply(o); err == nil {
			// Only objects nginx's own policy could have produced may
			// pass (e.g. a bare ServiceAccount is identical across
			// charts); anything nginx never renders must be denied.
			if !contains(charts.ExpectedKinds("nginx"), kind) {
				t.Errorf("postgresql %s admitted into nginx namespace", kind)
			}
			continue
		}
		crossTenant++
	}
	if crossTenant == 0 {
		t.Fatal("no cross-tenant object was denied; isolation untested")
	}
	if m := reg.Metrics()["nginx"]; m.Denied == 0 {
		t.Error("cross-tenant denials not charged to the governing tenant")
	}
	if m := reg.Metrics()["postgresql"]; m.Denied != 0 {
		t.Errorf("postgresql policy wrongly consulted %d times", m.Denied)
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// TestGenerateRegistryFacade covers the facade surface: generation,
// selector scoping, hot-swap, and mutual exclusion in NewProxy.
func TestGenerateRegistryFacade(t *testing.T) {
	reg, err := kubefence.GenerateRegistry(kubefence.RegistryConfig{}, "nginx", "mlflow")
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Workloads(); fmt.Sprint(got) != "[mlflow nginx]" {
		t.Fatalf("workloads = %v", got)
	}
	e, ok := reg.Resolve("nginx", "Deployment")
	if !ok || e.Workload() != "nginx" {
		t.Fatalf("resolve nginx/Deployment = %v, %v", e, ok)
	}
	if _, ok := reg.Resolve("postgresql", "StatefulSet"); ok {
		t.Fatal("unregistered namespace resolved")
	}

	// Hot-swap via the facade.
	c, err := kubefence.LoadBuiltinChart("nginx")
	if err != nil {
		t.Fatal(err)
	}
	strict, err := kubefence.GeneratePolicy(c, kubefence.Options{
		Workload: "nginx", Mode: kubefence.LockRequired,
	})
	if err != nil {
		t.Fatal(err)
	}
	genBefore := e.Generation()
	if err := strict.Swap(reg); err != nil {
		t.Fatal(err)
	}
	if e.Generation() == genBefore {
		t.Error("generation unchanged after swap")
	}

	// NewProxy rejects a configuration with no registry.
	if _, err := kubefence.NewProxy(kubefence.ProxyConfig{Upstream: "http://x"}); err == nil {
		t.Error("NewProxy without a Registry should fail")
	}
}
