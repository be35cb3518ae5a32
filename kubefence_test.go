package kubefence

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/client"
	"repro/internal/store"
)

func nginxPolicy(t *testing.T) *Policy {
	t.Helper()
	c, err := LoadBuiltinChart("nginx")
	if err != nil {
		t.Fatal(err)
	}
	p, err := GeneratePolicy(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuiltinCharts(t *testing.T) {
	names := BuiltinCharts()
	if len(names) != 5 {
		t.Fatalf("builtin charts = %v", names)
	}
	for _, n := range names {
		if _, err := LoadBuiltinChart(n); err != nil {
			t.Errorf("LoadBuiltinChart(%s): %v", n, err)
		}
	}
	if _, err := LoadBuiltinChart("nope"); err == nil {
		t.Error("unknown chart should error")
	}
}

func TestLoadChartFromFileset(t *testing.T) {
	c, err := LoadChart(map[string]string{
		"Chart.yaml":        "name: demo\nversion: 0.1.0\n",
		"values.yaml":       "replicas: 1\n",
		"templates/cm.yaml": "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: demo\ndata:\n  r: \"{{ .Values.replicas }}\"\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := GeneratePolicy(c, Options{Workload: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Workload != "demo" {
		t.Errorf("workload = %q", p.Workload)
	}
	kinds := p.AllowedKinds()
	if len(kinds) != 1 || kinds[0] != "ConfigMap" {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestPolicyValidateManifest(t *testing.T) {
	p := nginxPolicy(t)
	good := []byte(`
apiVersion: v1
kind: Service
metadata:
  name: my-nginx
  namespace: prod
spec:
  type: ClusterIP
  sessionAffinity: None
  ports:
    - name: http
      port: 80
      targetPort: http
      protocol: TCP
  selector:
    app.kubernetes.io/name: nginx
`)
	vs, err := p.ValidateManifest(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("good manifest denied: %v", vs)
	}

	bad := []byte(`
apiVersion: v1
kind: Service
metadata:
  name: mitm
spec:
  type: ClusterIP
  sessionAffinity: None
  externalIPs:
    - 203.0.113.7
  ports:
    - name: http
      port: 80
      targetPort: http
      protocol: TCP
`)
	vs, err = p.ValidateManifest(bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Error("externalIPs (CVE-2020-8554) should be denied")
	}

	if _, err := p.ValidateManifest([]byte("not: [valid")); err == nil {
		t.Error("unparseable manifest should error")
	}
}

func TestPolicyValidateObject(t *testing.T) {
	p := nginxPolicy(t)
	vs := p.ValidateObject(map[string]any{
		"apiVersion": "v1",
		"kind":       "Pod",
		"metadata":   map[string]any{"name": "x"},
	})
	if len(vs) == 0 {
		t.Error("Pod is outside the nginx policy")
	}
}

func TestPolicyIntrospection(t *testing.T) {
	p := nginxPolicy(t)
	if p.Variants < 2 {
		t.Errorf("variants = %d", p.Variants)
	}
	if p.Manifests == 0 {
		t.Error("no manifests consolidated")
	}
	paths := p.AllowedPaths("Deployment")
	if len(paths) == 0 {
		t.Error("no allowed paths")
	}
	data, err := p.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Deployment:") {
		t.Errorf("serialized policy malformed:\n%s", data)
	}
	if p.Validator() == nil {
		t.Error("Validator() returned nil")
	}
}

func TestNewProxyEndToEnd(t *testing.T) {
	api, err := apiserver.New(apiserver.Config{
		Store:           store.New(),
		FrontProxyUsers: []string{"kubefence-proxy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	apiTS := httptest.NewServer(api)
	defer apiTS.Close()

	reg := NewRegistry(RegistryConfig{})
	if err := nginxPolicy(t).Register(reg, Selector{}); err != nil {
		t.Fatal(err)
	}
	var denied []ViolationRecord
	p, err := NewProxy(ProxyConfig{
		Upstream:    apiTS.URL,
		Registry:    reg,
		ProxyUser:   "kubefence-proxy",
		OnViolation: func(r ViolationRecord) { denied = append(denied, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(p)
	defer proxyTS.Close()

	c, err := LoadBuiltinChart("nginx")
	if err != nil {
		t.Fatal(err)
	}
	manifests, err := RenderChart(c, nil, ReleaseOptions{Name: "prod", Namespace: "default"})
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) == 0 {
		t.Fatal("no manifests rendered")
	}

	cl := client.New(proxyTS.URL, client.WithUser("operator:nginx"))
	for _, m := range manifests {
		o, err := parseManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Create(o); err != nil {
			t.Fatalf("legitimate %s denied: %v", o["kind"], err)
		}
	}
	if len(denied) != 0 {
		t.Errorf("unexpected violations: %v", denied)
	}

	// An attack through the public API surfaces in OnViolation.
	evil := map[string]any{
		"apiVersion": "apps/v1",
		"kind":       "Deployment",
		"metadata":   map[string]any{"name": "evil", "namespace": "default"},
		"spec": map[string]any{
			"template": map[string]any{"spec": map[string]any{
				"hostPID": true,
				"containers": []any{map[string]any{
					"name": "c", "image": "docker.io/bitnami/nginx:1.0",
				}},
			}},
		},
	}
	if _, err := cl.Create(evil); !client.IsForbidden(err) {
		t.Fatalf("attack err = %v, want 403", err)
	}
	if len(denied) != 1 || denied[0].Kind != "Deployment" {
		t.Errorf("violation records = %+v", denied)
	}
}

func TestNewProxyRequiresPolicy(t *testing.T) {
	if _, err := NewProxy(ProxyConfig{Upstream: "http://x"}); err == nil {
		t.Error("missing registry should error")
	}
}

func TestUnionPoliciesMultiWorkloadCluster(t *testing.T) {
	// One proxy fronting a cluster shared by two operators.
	var policies []*Policy
	for _, name := range []string{"nginx", "postgresql"} {
		c, err := LoadBuiltinChart(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := GeneratePolicy(c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		policies = append(policies, p)
	}
	cluster, err := UnionPolicies("shared-cluster", policies...)
	if err != nil {
		t.Fatal(err)
	}

	api, err := apiserver.New(apiserver.Config{
		Store:           store.New(),
		FrontProxyUsers: []string{"kubefence-proxy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	apiTS := httptest.NewServer(api)
	defer apiTS.Close()
	reg := NewRegistry(RegistryConfig{})
	if err := cluster.Register(reg, Selector{}); err != nil {
		t.Fatal(err)
	}
	p, err := NewProxy(ProxyConfig{
		Upstream: apiTS.URL, Registry: reg, ProxyUser: "kubefence-proxy",
	})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(p)
	defer proxyTS.Close()

	// Both operators deploy through the single proxy.
	for _, name := range []string{"nginx", "postgresql"} {
		c, _ := LoadBuiltinChart(name)
		manifests, err := RenderChart(c, nil, ReleaseOptions{Name: name + "-rel", Namespace: "shared"})
		if err != nil {
			t.Fatal(err)
		}
		cl := client.New(proxyTS.URL, client.WithUser("operator:"+name))
		for _, m := range manifests {
			o, err := parseManifest(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Create(o); err != nil {
				t.Fatalf("%s %v denied by union policy: %v", name, o["kind"], err)
			}
		}
	}
	// Attacks stay blocked.
	cl := client.New(proxyTS.URL, client.WithUser("operator:nginx"))
	evil := map[string]any{
		"apiVersion": "v1", "kind": "Pod",
		"metadata": map[string]any{"name": "evil", "namespace": "shared"},
		"spec":     map[string]any{"hostPID": true, "containers": []any{}},
	}
	if _, err := cl.Create(evil); !client.IsForbidden(err) {
		t.Errorf("Pod (unused by both workloads) err = %v, want 403", err)
	}
}

func TestUnionPoliciesErrors(t *testing.T) {
	if _, err := UnionPolicies("x"); err == nil {
		t.Error("empty union should error")
	}
}
