package object

import (
	"strings"
	"testing"
	"testing/quick"
)

const sampleDeployment = `
apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
  namespace: prod
spec:
  replicas: 3
  template:
    spec:
      containers:
      - name: nginx
        image: nginx:1.25
        securityContext:
          runAsNonRoot: true
`

func mustParse(t *testing.T, s string) Object {
	t.Helper()
	o, err := ParseManifest([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestAccessors(t *testing.T) {
	o := mustParse(t, sampleDeployment)
	if o.Kind() != "Deployment" {
		t.Errorf("Kind = %q", o.Kind())
	}
	if o.APIVersion() != "apps/v1" {
		t.Errorf("APIVersion = %q", o.APIVersion())
	}
	if o.Name() != "web" {
		t.Errorf("Name = %q", o.Name())
	}
	if o.Namespace() != "prod" {
		t.Errorf("Namespace = %q", o.Namespace())
	}
	gvk := o.GVK()
	if gvk.Group != "apps" || gvk.Version != "v1" || gvk.Kind != "Deployment" {
		t.Errorf("GVK = %+v", gvk)
	}
}

func TestSetNamespace(t *testing.T) {
	o := Object{"kind": "Pod"}
	o.SetNamespace("dev")
	if o.Namespace() != "dev" {
		t.Errorf("Namespace = %q", o.Namespace())
	}
}

func TestGetSet(t *testing.T) {
	o := mustParse(t, sampleDeployment)
	if v, ok := Get(o, "spec.replicas"); !ok || v != int64(3) {
		t.Errorf("Get replicas = %v, %v", v, ok)
	}
	if _, ok := Get(o, "spec.missing.deep"); ok {
		t.Error("Get on missing path should fail")
	}
	if err := Set(o, "spec.strategy.type", "Recreate"); err != nil {
		t.Fatal(err)
	}
	if v, _ := GetString(o, "spec.strategy.type"); v != "Recreate" {
		t.Errorf("after Set, got %q", v)
	}
	// Setting through a scalar must fail.
	if err := Set(o, "kind.sub", 1); err == nil {
		t.Error("Set through scalar should fail")
	}
}

func TestDelete(t *testing.T) {
	o := mustParse(t, sampleDeployment)
	Delete(o, "spec.replicas")
	if _, ok := Get(o, "spec.replicas"); ok {
		t.Error("replicas still present after Delete")
	}
	Delete(o, "no.such.path") // must not panic
}

func TestDeepCopyIndependence(t *testing.T) {
	o := mustParse(t, sampleDeployment)
	c := o.DeepCopy()
	if err := Set(c, "spec.replicas", int64(9)); err != nil {
		t.Fatal(err)
	}
	if v, _ := Get(o, "spec.replicas"); v != int64(3) {
		t.Errorf("mutation leaked into original: %v", v)
	}
	cs, _ := GetSlice(c, "spec.template.spec.containers")
	cs[0].(map[string]any)["image"] = "evil"
	os, _ := GetSlice(o, "spec.template.spec.containers")
	if os[0].(map[string]any)["image"] != "nginx:1.25" {
		t.Error("slice mutation leaked into original")
	}
}

func TestEqualNumericBridge(t *testing.T) {
	// JSON decodes 3 as float64(3); YAML as int64(3). Equal must bridge.
	a := map[string]any{"replicas": int64(3), "list": []any{int64(1)}}
	b := map[string]any{"replicas": float64(3), "list": []any{float64(1)}}
	if !Equal(a, b) {
		t.Error("int64/float64 should compare equal")
	}
	if Equal(map[string]any{"x": int64(3)}, map[string]any{"x": float64(3.5)}) {
		t.Error("3 != 3.5")
	}
	if Equal(map[string]any{"x": "3"}, map[string]any{"x": int64(3)}) {
		t.Error(`"3" != 3`)
	}
}

func TestEqualStructural(t *testing.T) {
	if Equal(map[string]any{"a": int64(1)}, map[string]any{"a": int64(1), "b": int64(2)}) {
		t.Error("different sizes must differ")
	}
	if Equal([]any{int64(1), int64(2)}, []any{int64(2), int64(1)}) {
		t.Error("order matters in sequences")
	}
	if !Equal(nil, nil) {
		t.Error("nil == nil")
	}
}

func TestParseManifestsSkipsEmptyDocs(t *testing.T) {
	objs, err := ParseManifests([]byte("---\n# only a comment\n---\nkind: Pod\n---\nkind: Service\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("len = %d, want 2", len(objs))
	}
}

func TestParseManifestErrors(t *testing.T) {
	if _, err := ParseManifest(nil); err == nil {
		t.Error("empty manifest should error")
	}
	if _, err := ParseManifest([]byte("- just\n- a list\n")); err == nil {
		t.Error("non-mapping root should error")
	}
}

func TestGVKRoundTrip(t *testing.T) {
	tests := []struct {
		apiVersion string
		kind       string
		group      string
		version    string
	}{
		{"v1", "Pod", "", "v1"},
		{"apps/v1", "Deployment", "apps", "v1"},
		{"rbac.authorization.k8s.io/v1", "Role", "rbac.authorization.k8s.io", "v1"},
	}
	for _, tt := range tests {
		g := FromAPIVersionKind(tt.apiVersion, tt.kind)
		if g.Group != tt.group || g.Version != tt.version {
			t.Errorf("FromAPIVersionKind(%q) = %+v", tt.apiVersion, g)
		}
		if g.APIVersion() != tt.apiVersion {
			t.Errorf("APIVersion() = %q, want %q", g.APIVersion(), tt.apiVersion)
		}
	}
}

func TestLookupKind(t *testing.T) {
	ri, ok := LookupKind("Deployment")
	if !ok || ri.Resource != "deployments" || !ri.Namespaced {
		t.Errorf("LookupKind(Deployment) = %+v, %v", ri, ok)
	}
	ri, ok = LookupKind("ClusterRole")
	if !ok || ri.Namespaced {
		t.Errorf("ClusterRole should be cluster-scoped: %+v", ri)
	}
	if _, ok := LookupKind("NoSuchKind"); ok {
		t.Error("unknown kind should not resolve")
	}
}

func TestLookupResource(t *testing.T) {
	ri, ok := LookupResource("apps", "deployments")
	if !ok || ri.GVK.Kind != "Deployment" {
		t.Errorf("LookupResource = %+v, %v", ri, ok)
	}
	ri, ok = LookupResource("", "pods")
	if !ok || ri.GVK.Kind != "Pod" {
		t.Errorf("LookupResource core = %+v, %v", ri, ok)
	}
}

func TestResourcePaths(t *testing.T) {
	tests := []struct {
		kind string
		ns   string
		want string
	}{
		{"Pod", "default", "/api/v1/namespaces/default/pods"},
		{"Deployment", "prod", "/apis/apps/v1/namespaces/prod/deployments"},
		{"ClusterRole", "ignored", "/apis/rbac.authorization.k8s.io/v1/clusterroles"},
		{"Namespace", "", "/api/v1/namespaces"},
	}
	for _, tt := range tests {
		ri, ok := LookupKind(tt.kind)
		if !ok {
			t.Fatalf("kind %s missing", tt.kind)
		}
		if got := ri.Path(tt.ns); got != tt.want {
			t.Errorf("Path(%s, %s) = %q, want %q", tt.kind, tt.ns, got, tt.want)
		}
	}
}

func TestAllResourcesCoversFigure9Endpoints(t *testing.T) {
	// The 20 endpoints in the paper's Fig. 9.
	wanted := []string{
		"Deployment", "StatefulSet", "Pod", "Job", "CronJob", "Service",
		"ConfigMap", "NetworkPolicy", "Ingress", "IngressClass",
		"ServiceAccount", "HorizontalPodAutoscaler", "PodDisruptionBudget",
		"PersistentVolumeClaim", "ValidatingWebhookConfiguration", "Secret",
		"Role", "RoleBinding", "ClusterRole", "ClusterRoleBinding",
	}
	have := map[string]bool{}
	for _, ri := range AllResources() {
		have[ri.GVK.Kind] = true
	}
	for _, k := range wanted {
		if !have[k] {
			t.Errorf("missing Fig. 9 endpoint kind %s", k)
		}
	}
}

func TestDeepCopyQuick(t *testing.T) {
	f := func(n int64) bool {
		o := Object{
			"kind": "Pod",
			"n":    n,
			"m":    map[string]any{"list": []any{n, "s", map[string]any{"k": n}}},
		}
		c := o.DeepCopy()
		if !Equal(map[string]any(o), map[string]any(c)) {
			return false
		}
		c["m"].(map[string]any)["list"].([]any)[2].(map[string]any)["k"] = n + 1
		return o["m"].(map[string]any)["list"].([]any)[2].(map[string]any)["k"] == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarshalYAMLStable(t *testing.T) {
	o := mustParse(t, sampleDeployment)
	a, err := o.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := o.MarshalYAML()
	if string(a) != string(b) {
		t.Error("MarshalYAML is not deterministic")
	}
	if !strings.Contains(string(a), "kind: Deployment") {
		t.Errorf("unexpected output:\n%s", a)
	}
}
