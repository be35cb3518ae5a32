package validator

import (
	"testing"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/explore"
	"repro/internal/object"
	"repro/internal/schema"
)

func buildWorkloadPolicy(t *testing.T, name string) *Validator {
	t.Helper()
	c := charts.MustLoad(name)
	s, err := schema.Generate(c, schema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var corpus []object.Object
	for _, v := range explore.Variants(s) {
		files, err := c.RenderWithValues(v, chart.ReleaseOptions{Name: "kfrelease"})
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, chart.Objects(files)...)
	}
	pol, err := Build(corpus, BuildOptions{Workload: name, ReleaseName: "kfrelease"})
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestUnionAllowsEveryMemberWorkload unions all five builtin charts:
// containers.resources.limits is required where some charts render it
// and absent from others' trees, and the union must not demand it of
// the latter.
func TestUnionAllowsEveryMemberWorkload(t *testing.T) {
	var members []*Validator
	for _, name := range charts.Names() {
		members = append(members, buildWorkloadPolicy(t, name))
	}
	cluster, err := Union("cluster", members...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range charts.Names() {
		files, err := charts.MustLoad(name).Render(nil, chart.ReleaseOptions{Name: "prod", Namespace: "prod"})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range chart.Objects(files) {
			if vs := cluster.Validate(o); len(vs) != 0 {
				t.Errorf("union denied %s %s: %v", name, o.Kind(), vs)
			}
		}
	}
}

func TestUnionKindSetIsUnion(t *testing.T) {
	nginx := buildWorkloadPolicy(t, "nginx")
	mlflow := buildWorkloadPolicy(t, "mlflow")
	cluster, err := Union("cluster", nginx, mlflow)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, k := range nginx.AllowedKinds() {
		want[k] = true
	}
	for _, k := range mlflow.AllowedKinds() {
		want[k] = true
	}
	got := cluster.AllowedKinds()
	if len(got) != len(want) {
		t.Errorf("kinds = %v", got)
	}
	// Still denies kinds no member uses.
	if vs := cluster.Validate(object.Object{
		"apiVersion": "v1", "kind": "Pod", "metadata": map[string]any{"name": "x"},
	}); len(vs) == 0 {
		t.Error("Pod not used by either workload; union must deny it")
	}
}

func TestUnionStillBlocksAttacks(t *testing.T) {
	nginx := buildWorkloadPolicy(t, "nginx")
	mlflow := buildWorkloadPolicy(t, "mlflow")
	cluster, err := Union("cluster", nginx, mlflow)
	if err != nil {
		t.Fatal(err)
	}
	attack := parse(t, `
apiVersion: apps/v1
kind: Deployment
metadata:
  name: evil
spec:
  template:
    spec:
      hostNetwork: true
      containers:
      - name: c
        image: docker.io/bitnami/nginx:1.0
`)
	if vs := cluster.Validate(attack); len(vs) == 0 {
		t.Error("hostNetwork must stay denied in the union")
	}
	// Locks survive the union.
	locked := parse(t, `
apiVersion: apps/v1
kind: Deployment
metadata:
  name: evil
spec:
  template:
    spec:
      containers:
      - name: nginx
        image: docker.io/bitnami/nginx:1.25.4-debian-12
        securityContext:
          runAsNonRoot: false
`)
	found := false
	for _, v := range cluster.Validate(locked) {
		if v.Path == "spec.template.spec.containers.securityContext.runAsNonRoot" {
			found = true
		}
	}
	if !found {
		t.Error("runAsNonRoot lock lost in union")
	}
}

func TestUnionWidensScalarDomains(t *testing.T) {
	a := build(t, corpus(t), BuildOptions{}) // imagePullPolicy ∈ {IfNotPresent, Always}
	// A second policy whose deployment uses pullPolicy Never.
	never := parse(t, `
apiVersion: apps/v1
kind: Deployment
metadata:
  name: kfrel-web
spec:
  replicas: int
  template:
    spec:
      containers:
      - name: web
        image: "docker.io/bitnami/web:__KF_STRING__"
        imagePullPolicy: Never
        ports:
        - name: http
          containerPort: int
        livenessProbe:
          httpGet:
            path: /health
            port: int
        securityContext:
          runAsNonRoot: true
          allowPrivilegeEscalation: false
      serviceAccountName: kfrel-web
`)
	b := build(t, []object.Object{never}, BuildOptions{})
	u, err := Union("u", a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"IfNotPresent", "Always", "Never"} {
		req := parse(t, legit)
		cs, _ := object.GetSlice(req, "spec.template.spec.containers")
		cs[0].(map[string]any)["imagePullPolicy"] = policy
		if vs := u.Validate(req); len(vs) != 0 {
			t.Errorf("union should allow pullPolicy %s: %v", policy, vs)
		}
	}
}

func TestUnionErrors(t *testing.T) {
	if _, err := Union("x"); err == nil {
		t.Error("empty union should error")
	}
	a := build(t, corpus(t), BuildOptions{Mode: LockIfPresent})
	b := build(t, corpus(t), BuildOptions{Mode: LockRequired})
	if _, err := Union("x", a, b); err == nil {
		t.Error("mixed lock modes should error")
	}
}

func TestUnionStructuralConflictGeneralizes(t *testing.T) {
	a := build(t, []object.Object{parse(t, `
kind: ConfigMap
apiVersion: v1
metadata:
  name: kfrel-a
data:
  nested: plain-string
`)}, BuildOptions{})
	b := build(t, []object.Object{parse(t, `
kind: ConfigMap
apiVersion: v1
metadata:
  name: kfrel-b
data:
  nested:
    deeper: map-instead
`)}, BuildOptions{})
	u, err := Union("u", a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Both shapes validate after the conflict widens to Any.
	for _, pol := range []*Validator{a, b} {
		_ = pol
	}
	if vs := u.Validate(parse(t, "kind: ConfigMap\napiVersion: v1\nmetadata:\n  name: x\ndata:\n  nested: anything\n")); len(vs) != 0 {
		t.Errorf("scalar shape denied: %v", vs)
	}
	if vs := u.Validate(parse(t, "kind: ConfigMap\napiVersion: v1\nmetadata:\n  name: x\ndata:\n  nested:\n    deeper: v\n")); len(vs) != 0 {
		t.Errorf("map shape denied: %v", vs)
	}
}
