package validator

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/object"
	"repro/internal/schema"
)

func parse(t *testing.T, s string) object.Object {
	t.Helper()
	o, err := object.ParseManifest([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// corpus returns two rendered "manifest variants" like the exploration
// phase produces: same structure, different enum choices, placeholders as
// tokens, release-dependent names containing the release sentinel.
func corpus(t *testing.T) []object.Object {
	t.Helper()
	m1 := parse(t, `
apiVersion: apps/v1
kind: Deployment
metadata:
  name: kfrel-web
  namespace: default
  labels:
    app.kubernetes.io/instance: kfrel
spec:
  replicas: int
  template:
    spec:
      containers:
      - name: web
        image: "docker.io/bitnami/web:__KF_STRING__"
        imagePullPolicy: IfNotPresent
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
	m2 := parse(t, `
apiVersion: apps/v1
kind: Deployment
metadata:
  name: kfrel-web
  namespace: default
  labels:
    app.kubernetes.io/instance: kfrel
spec:
  replicas: int
  template:
    spec:
      containers:
      - name: web
        image: "docker.io/bitnami/web:__KF_STRING__"
        imagePullPolicy: Always
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
	svc := parse(t, `
apiVersion: v1
kind: Service
metadata:
  name: kfrel-web
spec:
  type: ClusterIP
  ports:
  - port: int
    targetPort: http
  selector:
    app.kubernetes.io/instance: kfrel
`)
	return []object.Object{m1, m2, svc}
}

func build(t *testing.T, objs []object.Object, opts BuildOptions) *Validator {
	t.Helper()
	if opts.ReleaseName == "" {
		opts.ReleaseName = "kfrel"
	}
	if opts.Workload == "" {
		opts.Workload = "test"
	}
	v, err := Build(objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// legit is a well-formed request matching the corpus policy.
const legit = `
apiVersion: apps/v1
kind: Deployment
metadata:
  name: myrelease-web
  namespace: production
  labels:
    app.kubernetes.io/instance: myrelease
    extra-label: fine
spec:
  replicas: 5
  template:
    spec:
      containers:
      - name: web
        image: "docker.io/bitnami/web:2.4.1"
        imagePullPolicy: Always
        ports:
        - name: http
          containerPort: 8080
        securityContext:
          runAsNonRoot: true
          allowPrivilegeEscalation: false
      serviceAccountName: myrelease-web
`

func TestLegitimateRequestAllowed(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	if vs := v.Validate(parse(t, legit)); len(vs) != 0 {
		t.Errorf("legitimate request denied: %v", vs)
	}
}

func TestUnknownKindDenied(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	vs := v.Validate(parse(t, "apiVersion: v1\nkind: Pod\nmetadata:\n  name: x\n"))
	if len(vs) == 0 {
		t.Fatal("Pod should be denied: not in workload")
	}
	if !strings.Contains(vs[0].Reason, "kind Pod") {
		t.Errorf("reason = %q", vs[0].Reason)
	}
}

func TestUnknownFieldDenied(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	bad := parse(t, legit)
	// hostNetwork was never rendered by the chart → attack surface removed.
	if err := object.Set(bad, "spec.template.spec.hostNetwork", true); err != nil {
		t.Fatal(err)
	}
	vs := v.Validate(bad)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	if vs[0].Path != "spec.template.spec.hostNetwork" {
		t.Errorf("path = %q", vs[0].Path)
	}
}

func TestUnknownNestedFieldDenied(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	bad := parse(t, legit)
	cs, _ := object.GetSlice(bad, "spec.template.spec.containers")
	c0 := cs[0].(map[string]any)
	c0["volumeMounts"] = []any{
		map[string]any{"name": "v", "mountPath": "/test", "subPath": "symlink-door"},
	}
	vs := v.Validate(bad)
	if len(vs) == 0 {
		t.Fatal("volumeMounts (absent from chart) should be denied")
	}
	found := false
	for _, viol := range vs {
		if strings.Contains(viol.Path, "volumeMounts") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations = %v", vs)
	}
}

func TestTypePlaceholderValidation(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	bad := parse(t, legit)
	if err := object.Set(bad, "spec.replicas", "three"); err != nil {
		t.Fatal(err)
	}
	vs := v.Validate(bad)
	if len(vs) != 1 || vs[0].Path != "spec.replicas" {
		t.Fatalf("violations = %v", vs)
	}
	// JSON-style float that is integral must pass the int placeholder.
	ok := parse(t, legit)
	if err := object.Set(ok, "spec.replicas", float64(4)); err != nil {
		t.Fatal(err)
	}
	if vs := v.Validate(ok); len(vs) != 0 {
		t.Errorf("integral float denied: %v", vs)
	}
	// Non-integral float must fail int.
	bad2 := parse(t, legit)
	if err := object.Set(bad2, "spec.replicas", 2.5); err != nil {
		t.Fatal(err)
	}
	if vs := v.Validate(bad2); len(vs) == 0 {
		t.Error("2.5 replicas should fail int placeholder")
	}
}

func TestEnumConsolidation(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	// imagePullPolicy saw IfNotPresent and Always across variants.
	for _, val := range []string{"IfNotPresent", "Always"} {
		req := parse(t, legit)
		cs, _ := object.GetSlice(req, "spec.template.spec.containers")
		cs[0].(map[string]any)["imagePullPolicy"] = val
		if vs := v.Validate(req); len(vs) != 0 {
			t.Errorf("pullPolicy %s denied: %v", val, vs)
		}
	}
	req := parse(t, legit)
	cs, _ := object.GetSlice(req, "spec.template.spec.containers")
	cs[0].(map[string]any)["imagePullPolicy"] = "Never"
	if vs := v.Validate(req); len(vs) == 0 {
		t.Error("pullPolicy Never should be denied (not in enum)")
	}
}

func TestImagePatternPreservesTrustedRepository(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	// Any tag of the trusted repository is fine.
	req := parse(t, legit)
	cs, _ := object.GetSlice(req, "spec.template.spec.containers")
	cs[0].(map[string]any)["image"] = "docker.io/bitnami/web:9.9.9-debian"
	if vs := v.Validate(req); len(vs) != 0 {
		t.Errorf("trusted image denied: %v", vs)
	}
	// Typosquatted registry/repository is denied (paper §V-A motivation).
	for _, evil := range []string{
		"docker.io/bitnami-evil/web:1.0",
		"evil.io/bitnami/web:1.0",
		"docker.io/bitnami/webx:1.0",
	} {
		req := parse(t, legit)
		cs, _ := object.GetSlice(req, "spec.template.spec.containers")
		cs[0].(map[string]any)["image"] = evil
		if vs := v.Validate(req); len(vs) == 0 {
			t.Errorf("typosquatted image %q allowed", evil)
		}
	}
}

func TestSecurityLockEnforced(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	bad := parse(t, legit)
	cs, _ := object.GetSlice(bad, "spec.template.spec.containers")
	sc := cs[0].(map[string]any)["securityContext"].(map[string]any)
	sc["runAsNonRoot"] = false
	vs := v.Validate(bad)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	if !strings.Contains(vs[0].Reason, "security-locked") {
		t.Errorf("reason = %q", vs[0].Reason)
	}
}

func TestLockModes(t *testing.T) {
	// Omitting the locked field: allowed in LockIfPresent, denied in
	// LockRequired.
	omit := parse(t, legit)
	cs, _ := object.GetSlice(omit, "spec.template.spec.containers")
	sc := cs[0].(map[string]any)["securityContext"].(map[string]any)
	delete(sc, "runAsNonRoot")

	lenient := build(t, corpus(t), BuildOptions{Mode: LockIfPresent})
	if vs := lenient.Validate(omit); len(vs) != 0 {
		t.Errorf("LockIfPresent should allow omission: %v", vs)
	}
	strict := build(t, corpus(t), BuildOptions{Mode: LockRequired})
	vs := strict.Validate(omit)
	if len(vs) != 1 {
		t.Fatalf("LockRequired should deny omission: %v", vs)
	}
	if !strings.Contains(vs[0].Reason, "must be present") {
		t.Errorf("reason = %q", vs[0].Reason)
	}
}

func TestLabelsAreFreeForm(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	req := parse(t, legit)
	labels, _ := object.GetMap(req, "metadata.labels")
	labels["kubectl.kubernetes.io/last-applied-configuration"] = "{...}"
	labels["anything"] = "goes"
	if vs := v.Validate(req); len(vs) != 0 {
		t.Errorf("free-form labels denied: %v", vs)
	}
}

func TestReleaseDependentNamesGeneralize(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	req := parse(t, legit)
	if err := object.Set(req, "metadata.name", "completely-different-name"); err != nil {
		t.Fatal(err)
	}
	if err := object.Set(req, "spec.template.spec.serviceAccountName", "other-sa"); err != nil {
		t.Fatal(err)
	}
	if vs := v.Validate(req); len(vs) != 0 {
		t.Errorf("release-derived fields should accept any string: %v", vs)
	}
	// But not non-strings.
	bad := parse(t, legit)
	if err := object.Set(bad, "spec.template.spec.serviceAccountName", int64(42)); err != nil {
		t.Fatal(err)
	}
	if vs := v.Validate(bad); len(vs) == 0 {
		t.Error("int serviceAccountName should fail string type")
	}
}

func TestAPIVersionChecked(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	bad := parse(t, legit)
	bad["apiVersion"] = "apps/v1beta1"
	vs := v.Validate(bad)
	if len(vs) != 1 || vs[0].Path != "apiVersion" {
		t.Errorf("violations = %v", vs)
	}
}

func TestStatusIgnored(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	req := parse(t, legit)
	req["status"] = map[string]any{"availableReplicas": int64(1)}
	if vs := v.Validate(req); len(vs) != 0 {
		t.Errorf("status must be ignored: %v", vs)
	}
}

func TestListItemsValidated(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	req := parse(t, legit)
	cs, _ := object.GetSlice(req, "spec.template.spec.containers")
	// A second container matching the schema is fine (replica of shape).
	second := object.DeepCopyValue(cs[0]).(map[string]any)
	second["name"] = "sidecar"
	if err := object.Set(req, "spec.template.spec", map[string]any{
		"containers":         []any{cs[0], second},
		"serviceAccountName": "sa",
	}); err != nil {
		t.Fatal(err)
	}
	if vs := v.Validate(req); len(vs) != 0 {
		t.Errorf("second conforming container denied: %v", vs)
	}
	// A malicious item inside the list is caught.
	second["securityContext"].(map[string]any)["privileged"] = true
	vs := v.Validate(req)
	if len(vs) == 0 {
		t.Fatal("privileged container in list not caught")
	}
}

func TestScalarVsStructureMismatch(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	bad := parse(t, legit)
	if err := object.Set(bad, "spec.replicas", map[string]any{"sneaky": 1}); err != nil {
		t.Fatal(err)
	}
	if vs := v.Validate(bad); len(vs) == 0 {
		t.Error("object where scalar expected should be denied")
	}
	bad2 := parse(t, legit)
	if err := object.Set(bad2, "spec.template", "not-an-object"); err != nil {
		t.Fatal(err)
	}
	if vs := v.Validate(bad2); len(vs) == 0 {
		t.Error("scalar where object expected should be denied")
	}
}

func TestMultipleViolationsReported(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	bad := parse(t, legit)
	if err := object.Set(bad, "spec.template.spec.hostNetwork", true); err != nil {
		t.Fatal(err)
	}
	if err := object.Set(bad, "spec.template.spec.hostPID", true); err != nil {
		t.Fatal(err)
	}
	vs := v.Validate(bad)
	if len(vs) != 2 {
		t.Errorf("want 2 violations, got %v", vs)
	}
}

func TestValidateNoKind(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	vs := v.Validate(object.Object{"metadata": map[string]any{"name": "x"}})
	if len(vs) == 0 {
		t.Error("object without kind should be denied")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, BuildOptions{}); err == nil {
		t.Error("empty corpus should error")
	}
	if _, err := Build([]object.Object{{"metadata": map[string]any{}}}, BuildOptions{}); err == nil {
		t.Error("manifest without kind should error")
	}
}

func TestAllowedKindsAndPaths(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	kinds := v.AllowedKinds()
	if len(kinds) != 2 || kinds[0] != "Deployment" || kinds[1] != "Service" {
		t.Errorf("AllowedKinds = %v", kinds)
	}
	paths := v.AllowedPaths("Deployment")
	want := []string{
		"spec.replicas",
		"spec.template.spec.containers.image",
		"spec.template.spec.containers.securityContext.runAsNonRoot",
		"metadata.labels",
	}
	set := map[string]bool{}
	for _, p := range paths {
		set[p] = true
	}
	for _, p := range want {
		if !set[p] {
			t.Errorf("AllowedPaths missing %s", p)
		}
	}
	if set["spec.template.spec.hostNetwork"] {
		t.Error("hostNetwork must not be in allowed paths")
	}
	if v.AllowedPaths("Pod") != nil {
		t.Error("unknown kind should have nil paths")
	}
}

func TestMarshalYAML(t *testing.T) {
	v := build(t, corpus(t), BuildOptions{})
	data, err := v.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, "Deployment:") || !strings.Contains(s, "Service:") {
		t.Errorf("serialized validator missing kinds:\n%s", s)
	}
	for i := 0; i < 3; i++ {
		again, _ := v.MarshalYAML()
		if string(again) != s {
			t.Fatal("validator serialization not deterministic")
		}
	}
}

func TestEmbeddedPattern(t *testing.T) {
	tests := []struct {
		in      string
		match   []string
		nomatch []string
	}{
		{
			in:      "docker.io/bitnami/web:__KF_STRING__",
			match:   []string{"docker.io/bitnami/web:1.2.3", "docker.io/bitnami/web:latest"},
			nomatch: []string{"evil.io/bitnami/web:1.2.3", "docker.io/bitnami/web:has space"},
		},
		{
			in:      "server-__KF_INT__",
			match:   []string{"server-0", "server-42"},
			nomatch: []string{"server-x", "server-"},
		},
	}
	for _, tt := range tests {
		pat, ok := embeddedPattern(tt.in)
		if !ok {
			t.Fatalf("embeddedPattern(%q) not detected", tt.in)
		}
		n := &Node{Kind: KindScalar, Patterns: []string{pat}}
		for _, m := range tt.match {
			res := n.regexps()
			if len(res) != 1 || !res[0].MatchString(m) {
				t.Errorf("pattern from %q should match %q (pattern %s)", tt.in, m, pat)
			}
		}
		for _, m := range tt.nomatch {
			if n.regexps()[0].MatchString(m) {
				t.Errorf("pattern from %q should NOT match %q (pattern %s)", tt.in, m, pat)
			}
		}
	}
	if _, ok := embeddedPattern("no tokens here"); ok {
		t.Error("plain strings have no embedded pattern")
	}
	if _, ok := embeddedPattern("connectionstring"); ok {
		t.Error("plain words must not be mistaken for sentinels")
	}
}

func TestMergeTypeWidening(t *testing.T) {
	tests := []struct{ a, b, want string }{
		{"", "int", "int"},
		{"int", "int", "int"},
		{"IP", "string", "string"},
		{"int", "float", "float"},
		{"bool", "string", "string"},
	}
	for _, tt := range tests {
		if got := mergeType(tt.a, tt.b); got != tt.want {
			t.Errorf("mergeType(%q, %q) = %q, want %q", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestTypeMatches(t *testing.T) {
	tests := []struct {
		tok  string
		v    any
		want bool
	}{
		{schema.TokString, "s", true},
		{schema.TokString, int64(1), false},
		{schema.TokInt, int64(1), true},
		{schema.TokInt, float64(1), true},
		{schema.TokInt, 1.5, false},
		{schema.TokInt, "5432", true}, // quoted numbers in string positions
		{schema.TokInt, "abc", false},
		{schema.TokFloat, 1.5, true},
		{schema.TokFloat, int64(1), true},
		{schema.TokBool, true, true},
		{schema.TokBool, "true", true}, // quoted bools in string positions
		{schema.TokBool, "yes", false},
		{schema.TokIP, "10.0.0.1", true},
		{schema.TokIP, "not-an-ip", false},
		{schema.TokList, []any{}, true},
		{schema.TokDict, map[string]any{}, true},
	}
	for _, tt := range tests {
		if got := TypeMatches(tt.tok, tt.v); got != tt.want {
			t.Errorf("TypeMatches(%q, %#v) = %v, want %v", tt.tok, tt.v, got, tt.want)
		}
	}
}

// TestBoundedRendering: an offending value is kept whole up to maxRender
// bytes; past it, cut back to a rune boundary with its full length
// marked — the same text from a decoded string and from the wire bytes.
func TestBoundedRendering(t *testing.T) {
	long := strings.Repeat("a", maxRender-1) + "é" + strings.Repeat("b", 4<<20)
	for _, tc := range []struct{ in, want string }{
		{"", ""},
		{"short", "short"},
		{strings.Repeat("x", maxRender), strings.Repeat("x", maxRender)},
		// "é" straddles byte maxRender: the cut keeps none of it.
		{long, strings.Repeat("a", maxRender-1) + "...(" + strconv.Itoa(len(long)) + " bytes)"},
	} {
		if got := Bounded(tc.in); got != tc.want {
			t.Errorf("Bounded(%d bytes) = %.80q, want %.80q", len(tc.in), got, tc.want)
		}
		if got := Bounded([]byte(tc.in)); got != tc.want {
			t.Errorf("Bounded([]byte, %d bytes) = %.80q, want %.80q", len(tc.in), got, tc.want)
		}
	}
	if got := RenderValue(long); got != Bounded(long) {
		t.Errorf("RenderValue of a long string is not bounded: %d bytes", len(got))
	}
	if got := RenderValue(int64(-7)); got != "-7" {
		t.Errorf("RenderValue(-7) = %q", got)
	}
}
