package main

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/proxy"
	"repro/internal/telemetry"
)

func writeChartDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"Chart.yaml":  "name: disk\nversion: 0.1.0\n",
		"values.yaml": "replicas: 2\nimage:\n  registry: docker.io\n  repository: corp/app\n  tag: \"1.0\"\n",
		"templates/deploy.yaml": `
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ .Release.Name }}-disk
spec:
  replicas: {{ .Values.replicas }}
  template:
    spec:
      containers:
        - name: app
          image: "{{ .Values.image.registry }}/{{ .Values.image.repository }}:{{ .Values.image.tag }}"
          securityContext:
            runAsNonRoot: true
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadChartDir(t *testing.T) {
	dir := writeChartDir(t)
	c, err := loadChartDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "disk" || len(c.Templates) != 1 {
		t.Errorf("chart = %+v", c)
	}
	if _, err := loadChartDir(t.TempDir()); err == nil {
		t.Error("empty dir should error")
	}
}

func TestGenerateFromDirAndWorkload(t *testing.T) {
	dir := writeChartDir(t)
	res, err := generate(dir, "", "lenient", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Validator.Kinds["Deployment"]; !ok {
		t.Errorf("kinds = %v", res.Validator.AllowedKinds())
	}
	res, err = generate("", "nginx", "strict", false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "nginx" {
		t.Errorf("workload = %s", res.Workload)
	}
	if _, err := generate("", "", "lenient", false); err == nil {
		t.Error("missing chart/workload should error")
	}
	if _, err := generate("", "nginx", "bogus", false); err == nil {
		t.Error("bad mode should error")
	}
}

func TestRunGenerateToFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "policy.yaml")
	if err := runGenerate([]string{"-workload", "mlflow", "-o", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Deployment:") {
		t.Errorf("policy file malformed:\n%.300s", data)
	}
	// Schema emission.
	outSchema := filepath.Join(t.TempDir(), "schema.yaml")
	if err := runGenerate([]string{"-workload", "mlflow", "-schema", "-o", outSchema}); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(outSchema)
	if !strings.Contains(string(data), "registry: docker.io") {
		t.Errorf("schema should lock registry:\n%.300s", data)
	}
}

func TestRunProxyValidation(t *testing.T) {
	if err := runProxy([]string{"-workload", "nginx"}); err == nil {
		t.Error("missing -upstream should error")
	}
	if err := runProxy([]string{"-workload", "nginx", "-upstream", "http://x",
		"-rollout", "observe"}); err == nil {
		t.Error("unknown -rollout mode should error")
	}
	// Learning needs per-workload scoping: a single cluster-wide
	// validator has no namespace to attribute observations to.
	if err := runProxy([]string{"-workload", "nginx", "-upstream", "http://x",
		"-rollout", "learn"}); err == nil {
		t.Error("-rollout learn without -workloads should error")
	}
	if err := runProxy([]string{"-workloads", "nginx", "-upstream", "http://x",
		"-mode", "bogus"}); err == nil {
		t.Error("unknown -mode should error")
	}
	if err := runProxy([]string{"-workloads", "nginx", "-workload", "nginx",
		"-upstream", "http://x"}); err == nil {
		t.Error("-workloads with -workload should error")
	}
	if err := runProxy([]string{"-workloads", " , ", "-upstream", "http://x"}); err == nil {
		t.Error("empty -workloads list should error")
	}
}

// TestRunProxySetupPaths drives every rollout branch through the full
// setup — policy generation, registry construction, controller wiring,
// trace tap — by occupying the listen port first, so ListenAndServe
// fails immediately after setup succeeds.
func TestRunProxySetupPaths(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	cases := []struct {
		name string
		args []string
	}{
		{"single-chart", []string{"-workload", "nginx"}},
		{"enforce-strict", []string{"-workloads", "nginx,mlflow", "-mode", "strict", "-cache", "64"}},
		{"shadow", []string{"-workloads", "nginx", "-rollout", "shadow",
			"-trace-out", filepath.Join(t.TempDir(), "trace.jsonl")}},
		{"learn", []string{"-workloads", "nginx", "-rollout", "learn"}},
	}
	for _, tc := range cases {
		args := append(tc.args, "-upstream", "http://127.0.0.1:1", "-listen", addr)
		err := runProxy(args)
		if err == nil || !strings.Contains(err.Error(), "address already in use") {
			t.Errorf("%s: expected the occupied listen address to fail, got %v", tc.name, err)
		}
	}
}

type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestTelemetryMuxServesDenialRecords: a denial the proxy records is
// read back from /varz on the telemetry listener, which also serves
// pprof, and the record carries only the audit fields.
func TestTelemetryMuxServesDenialRecords(t *testing.T) {
	reg, _, err := multiRegistry([]string{"nginx"}, "lenient", 0)
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.New(telemetry.Config{SampleEvery: 1})
	p, err := proxy.New(proxy.Config{
		Upstream: "http://upstream.invalid",
		Registry: reg,
		Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
			t.Errorf("denied request forwarded upstream: %s %s", r.Method, r.URL)
			return nil, errors.New("unexpected upstream call")
		}),
		Telemetry: hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"apiVersion":"v1","kind":"Pod","metadata":{"name":"rogue","namespace":"nginx"},"spec":{"hostNetwork":true}}`
	req := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/nginx/pods", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Remote-User", "operator:nginx")
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
	if rec.Code != http.StatusForbidden {
		t.Fatalf("rogue pod: status %d, want 403", rec.Code)
	}

	srv := httptest.NewServer(telemetryMux(hub, p))
	defer srv.Close()
	get := func(path string) *http.Response {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return resp
	}
	get("/debug/pprof/").Body.Close()
	resp := get("/varz")
	defer resp.Body.Close()
	var varz struct {
		State struct {
			Metrics    proxy.Metrics    `json:"metrics"`
			Violations []map[string]any `json:"violations"`
		} `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&varz); err != nil {
		t.Fatal(err)
	}
	if varz.State.Metrics.Denied != 1 {
		t.Errorf("/varz metrics count %d denials, want 1", varz.State.Metrics.Denied)
	}
	if len(varz.State.Violations) != 1 {
		t.Fatalf("/varz holds %d denial records, want 1", len(varz.State.Violations))
	}
	got := varz.State.Violations[0]
	for field, want := range map[string]string{
		"Workload": "nginx", "User": "operator:nginx", "Method": http.MethodPost,
		"RequestURI": "/api/v1/namespaces/nginx/pods", "Kind": "Pod", "Name": "rogue",
	} {
		if got[field] != want {
			t.Errorf("record %s = %v, want %q", field, got[field], want)
		}
	}
	if vs, _ := got["Violations"].([]any); len(vs) == 0 {
		t.Errorf("record carries no violations: %v", got)
	}
	var fields []string
	for k := range got {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	if want := "Kind Method Name RequestURI Time User Violations Workload"; strings.Join(fields, " ") != want {
		t.Errorf("record fields %v, want exactly %s", fields, want)
	}
}
