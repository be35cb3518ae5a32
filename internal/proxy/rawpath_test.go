package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/registry"
	"repro/internal/validator"
)

// echoTransport completes round trips in memory, echoing the request
// body back — any pooled-buffer corruption (a buffer recycled while the
// upstream read is in flight) shows up as a mangled echo.
type echoTransport struct{}

func (echoTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	var buf bytes.Buffer
	if r.Body != nil {
		if _, err := io.Copy(&buf, r.Body); err != nil {
			return nil, err
		}
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{},
		Body:       io.NopCloser(&buf),
	}, nil
}

func newRawPathProxy(t *testing.T, mutate func(*Config)) *Proxy {
	t.Helper()
	cfg := Config{Upstream: "http://upstream.invalid", Transport: echoTransport{}}
	if mutate != nil {
		mutate(&cfg)
	}
	return newProxy(t, cfg, testPolicy(t), 0)
}

func postJSON(t *testing.T, p *Proxy, o object.Object) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost,
		"/apis/apps/v1/namespaces/default/deployments", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Remote-User", "operator")
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
	return rec
}

func TestRawFastPathDecidesAllowedRequests(t *testing.T) {
	p := newRawPathProxy(t, nil)
	for i := 0; i < 3; i++ {
		if rec := postJSON(t, p, goodDeployment()); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	m := p.Metrics()
	if m.RawAllowed != 3 {
		t.Errorf("RawAllowed = %d, want 3 (every allowed request decided raw): %+v", m.RawAllowed, m)
	}
	if m.Denied != 0 || m.Inspected != 3 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestRawFastPathFallbackParityOnDenial(t *testing.T) {
	raw := newRawPathProxy(t, nil)
	classic := newRawPathProxy(t, func(c *Config) { c.DisableRawFastPath = true })

	recRaw := postJSON(t, raw, badDeployment())
	recClassic := postJSON(t, classic, badDeployment())
	if recRaw.Code != http.StatusForbidden || recClassic.Code != http.StatusForbidden {
		t.Fatalf("status raw=%d classic=%d, want 403/403", recRaw.Code, recClassic.Code)
	}
	// Byte-identical denial responses: the raw pipeline reproduces the
	// decode path's violation list exactly.
	if recRaw.Body.String() != recClassic.Body.String() {
		t.Errorf("denial bodies diverge:\nraw:     %s\nclassic: %s",
			recRaw.Body.String(), recClassic.Body.String())
	}
	vRaw, vClassic := raw.Violations(), classic.Violations()
	if len(vRaw) != 1 || len(vClassic) != 1 {
		t.Fatalf("violation logs: raw=%d classic=%d", len(vRaw), len(vClassic))
	}
	if vRaw[0].Kind != "Deployment" || vRaw[0].Name != "web" {
		t.Errorf("raw record kind/name = %q/%q", vRaw[0].Kind, vRaw[0].Name)
	}
	if !reflect.DeepEqual(vRaw[0].Violations, vClassic[0].Violations) {
		t.Errorf("violation lists diverge:\nraw:     %v\nclassic: %v",
			vRaw[0].Violations, vClassic[0].Violations)
	}
	if m := raw.Metrics(); m.RawAllowed != 0 || m.RawDenied != 1 {
		t.Errorf("uncached denial must be diagnosed on the raw path: %+v", m)
	}
}

func TestRawFastPathCachedDenialSkipsDecode(t *testing.T) {
	p := newProxy(t, Config{Upstream: "http://upstream.invalid", Transport: echoTransport{}}, testPolicy(t), 64)
	first := postJSON(t, p, badDeployment())
	second := postJSON(t, p, badDeployment())
	if first.Code != http.StatusForbidden || second.Code != http.StatusForbidden {
		t.Fatalf("status %d/%d, want 403/403", first.Code, second.Code)
	}
	if first.Body.String() != second.Body.String() {
		t.Errorf("cached denial diverges from original:\nfirst:  %s\nsecond: %s",
			first.Body.String(), second.Body.String())
	}
	// The first denial is diagnosed off the raw bytes, the second is its
	// cached list: neither decodes.
	m := p.Metrics()
	if m.RawDenied != 2 {
		t.Errorf("RawDenied = %d, want 2 (diagnosed, then answered from the cache): %+v", m.RawDenied, m)
	}
	for w, rm := range p.Registry().Metrics() {
		if rm.Requests != 2 || rm.CacheHits != 1 {
			t.Errorf("workload %s: %+v, want 2 requests, 1 cache hit", w, rm)
		}
	}
	vs := p.Violations()
	if len(vs) != 2 || vs[1].Kind != "Deployment" || vs[1].Name != "web" {
		t.Fatalf("cached-denial record incomplete: %+v", vs)
	}
}

func TestRawFastPathNoPolicyRejectMatchesClassic(t *testing.T) {
	reject := func(disable bool) *httptest.ResponseRecorder {
		p := newRawPathProxy(t, func(c *Config) { c.DisableRawFastPath = disable })
		o := goodDeployment()
		o["kind"] = "Secret"
		delete(o, "apiVersion")
		return postJSON(t, p, o)
	}
	raw, classic := reject(false), reject(true)
	if raw.Code != classic.Code || raw.Body.String() != classic.Body.String() {
		t.Errorf("unmatched-kind rejections diverge:\nraw:     %d %s\nclassic: %d %s",
			raw.Code, raw.Body.String(), classic.Code, classic.Body.String())
	}
}

// outcome is what a client and an auditor see of one request.
type outcome struct {
	Code    int
	Body    string
	Charged map[string]uint64 // per-workload Requests
	Records [][3]string       // workload, kind and name of each denial record
}

// serveTenants serves body through a fresh proxy over two tenants: a and
// b each own their namespace's ConfigMaps, a with a lenient data.mode
// and b with a strict one.
func serveTenants(t testing.TB, disableRaw, yaml bool, body []byte) outcome {
	t.Helper()
	reg := registry.New(registry.Config{})
	for tenant, mode := range map[string]string{"a": "lenient", "b": "strict"} {
		v, err := buildPolicy(object.Object{
			"apiVersion": "v1",
			"kind":       "ConfigMap",
			"metadata":   map[string]any{"name": "cm", "namespace": tenant},
			"data":       map[string]any{"mode": mode},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Register(tenant, registry.Selector{Namespace: tenant}, v); err != nil {
			t.Fatal(err)
		}
	}
	return serveOn(t, reg, disableRaw, yaml, body)
}

// serveOn serves body on the given wire, POSTed into namespace a,
// through a fresh proxy over reg.
func serveOn(t testing.TB, reg *registry.Registry, disableRaw, yaml bool, body []byte) outcome {
	t.Helper()
	p, err := New(Config{Upstream: "http://upstream.invalid", Transport: echoTransport{},
		Registry: reg, DisableRawFastPath: disableRaw})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/a/configmaps", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if yaml {
		req.Header.Set("Content-Type", "application/yaml")
	}
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
	out := outcome{Code: rec.Code, Body: rec.Body.String(), Charged: map[string]uint64{}}
	for workload, m := range p.Registry().Metrics() {
		out.Charged[workload] = m.Requests
	}
	for _, r := range p.Violations() {
		out.Records = append(out.Records, [3]string{r.Workload, r.Kind, r.Name})
	}
	return out
}

// nbsp is U+00A0, white space the YAML decoder trims off keys and
// values.
const nbsp = "\xc2\xa0"

// nginxDuplicateLabel is the nginx chart's Deployment on the YAML wire
// with one metadata.labels key repeated, U+00A0 before its ':' — a
// duplicate key once the decoder trims it.
func nginxDuplicateLabel(tb testing.TB) []byte {
	tb.Helper()
	files, err := charts.MustLoad("nginx").Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: "nginx"})
	if err != nil {
		tb.Fatal(err)
	}
	for _, o := range chart.Objects(files) {
		if o.Kind() != "Deployment" {
			continue
		}
		body, err := o.MarshalYAML()
		if err != nil {
			tb.Fatal(err)
		}
		label := "    app.kubernetes.io/instance: rel\n"
		return []byte(strings.Replace(string(body), label, label+"    app.kubernetes.io/instance"+nbsp+": rel\n", 1))
	}
	tb.Fatal("the nginx chart renders no Deployment")
	return nil
}

// TestRawFastPathTenantResolutionMatchesClassic: YAML bodies the raw
// path once read differently from the decoder. With the fast path on
// and off, the proxy must answer the same status and charge the same
// workload.
//   - metadata.namespace on an indented continuation line names tenant b
//     whatever the URL says; a scan that read the field as absent fell
//     back to the URL's tenant a, whose policy allows the body.
//   - a namespace value ending in U+00A0 names tenant b once trimmed; a
//     scan that kept the bytes resolved no tenant.
//   - an nginx Deployment repeating a label key with U+00A0 before the
//     ':' does not decode (duplicate key); a walker that kept the bytes
//     vouched for it and forwarded it.
func TestRawFastPathTenantResolutionMatchesClassic(t *testing.T) {
	res, err := core.GeneratePolicy(charts.MustLoad("nginx"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nginx := func(disableRaw bool, body []byte) outcome {
		reg := registry.New(registry.Config{})
		if _, err := reg.Register("nginx", registry.Selector{Namespace: "nginx"}, res.Validator); err != nil {
			t.Fatal(err)
		}
		return serveOn(t, reg, disableRaw, true, body)
	}
	tenants := func(disableRaw bool, body []byte) outcome { return serveTenants(t, disableRaw, true, body) }
	for _, tc := range []struct {
		name    string
		serve   func(disableRaw bool, body []byte) outcome
		body    []byte
		charged map[string]uint64
	}{
		{"continuation-line namespace", tenants, []byte("apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cm\n" +
			"  namespace:\n    b\ndata:\n  mode: lenient\n"), map[string]uint64{"a": 0, "b": 1}},
		{"namespace ending in U+00A0", tenants, []byte("apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cm\n" +
			"  namespace: b" + nbsp + "\ndata:\n  mode: lenient\n"), map[string]uint64{"a": 0, "b": 1}},
		{"label key repeated with U+00A0", nginx, nginxDuplicateLabel(t), map[string]uint64{"nginx": 0}},
	} {
		raw, classic := tc.serve(false, tc.body), tc.serve(true, tc.body)
		if !reflect.DeepEqual(raw, classic) {
			t.Errorf("%s: raw path: %+v\ndecode path: %+v", tc.name, raw, classic)
		}
		if classic.Code != http.StatusForbidden || !reflect.DeepEqual(classic.Charged, tc.charged) {
			t.Errorf("%s: decode path: %d charged %v, want 403 charged %v", tc.name, classic.Code, classic.Charged, tc.charged)
		}
	}
}

// FuzzRawPathMatchesClassic: whatever the body and the wire, the proxy
// with the raw fast path on answers, charges and records exactly what
// it does with DisableRawFastPath — the same status, the same response
// bytes, the same per-workload Requests and the same denial records.
// The scan reads a body's prologue only, so this is where a body that
// scans but does not decode has to come out the same as on the classic
// path.
func FuzzRawPathMatchesClassic(f *testing.F) {
	for _, s := range []struct {
		yaml bool
		body string
	}{
		{true, "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cm\n  namespace:\n    b\ndata:\n  mode: lenient\n"},
		{true, "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cm\n  namespace: a\ndata:\n  mode: lenient\n"},
		{false, `{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"cm","namespace":"b"},"data":{"mode":"strict"}}`},
		{false, `{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"cm"},"data":{"mode":"lenient"}}`},
		// Complete prologues before a suffix that does not decode, naming
		// a tenant, no tenant, and a kind nobody governs.
		{false, `{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"cm","namespace":"b"},"data":{"mode":"strict","mode":"x"}}`},
		{false, `{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"cm"},"data":{"mode":"lenient"}} x`},
		{false, `{"apiVersion":"v1","kind":"Secret","metadata":{"name":"s","namespace":"zz"},"data":`},
		{false, `{"apiVersion":"","kind":"","metadata":{}`},
		{true, "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cm\ndata:\n  mode: lenient\n---\nkind: Secret\n"},
		{true, "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cm\n namespace: b\n"},
		{true, "apiVersion: \nkind: \nmetadata:\n 0:\n00"},
		// Unicode white space the YAML decoder trims off values and keys.
		{true, "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cm\n  namespace: b" + nbsp + "\ndata:\n  mode: lenient\n"},
		{true, string(nginxDuplicateLabel(f))},
		// Denials the raw walk diagnoses: keys out of order around an
		// unlisted key and a refused value, a required field emptied, and
		// an unknown kind before a tail that does not decode.
		{false, `{"metadata":{"namespace":"b","zz":1,"name":"cm"},"kind":"ConfigMap","data":{"mode":"x","aa":[]},"apiVersion":"v1"}`},
		{true, "metadata:\n  namespace: b\n  zz: 1\n  name: cm\nkind: ConfigMap\ndata:\n  mode: -0\n  aa: []\napiVersion: v1\n"},
		{false, `{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"cm","namespace":"b"},"data":{}}`},
		{false, `{"apiVersion":"v1","kind":"Nope","metadata":{"namespace":"b"},"data":{"a":1,}`},
	} {
		f.Add([]byte(s.body), s.yaml)
	}
	f.Fuzz(func(t *testing.T, body []byte, yaml bool) {
		raw, classic := serveTenants(t, false, yaml, body), serveTenants(t, true, yaml, body)
		if !reflect.DeepEqual(raw, classic) {
			t.Fatalf("yaml=%v body %q:\nraw path:    %+v\ndecode path: %+v", yaml, body, raw, classic)
		}
	})
}

// TestRawPathNoPolicyYetMatchesClassic: a learning workload switched to
// enforce before any policy was swapped in fails closed. A body that
// does not decode is rejected as such and charged to nobody, on both
// paths, even when its prologue scans.
func TestRawPathNoPolicyYetMatchesClassic(t *testing.T) {
	for _, body := range []string{
		`{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"cm"},"data":{}}`,
		`{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"cm"},"data":{"k":1,"k":1}}`,
	} {
		serve := func(disableRaw bool) outcome {
			reg := registry.New(registry.Config{CacheSize: 16})
			if _, err := reg.RegisterLearning("a", registry.Selector{Namespace: "a"}, nil); err != nil {
				t.Fatal(err)
			}
			if err := reg.SetMode("a", registry.ModeEnforce); err != nil {
				t.Fatal(err)
			}
			return serveOn(t, reg, disableRaw, false, []byte(body))
		}
		raw, classic := serve(false), serve(true)
		if !reflect.DeepEqual(raw, classic) {
			t.Errorf("body %s:\nraw path:    %+v\ndecode path: %+v", body, raw, classic)
		}
		if classic.Code != http.StatusForbidden {
			t.Errorf("body %s: status %d, want 403", body, classic.Code)
		}
	}
}

func TestDisableRawFastPath(t *testing.T) {
	p := newRawPathProxy(t, func(c *Config) { c.DisableRawFastPath = true })
	if rec := postJSON(t, p, goodDeployment()); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if m := p.Metrics(); m.RawAllowed != 0 {
		t.Errorf("RawAllowed = %d with the fast path disabled", m.RawAllowed)
	}
}

func TestTapForcesDecodePath(t *testing.T) {
	var mu sync.Mutex
	var tapped []string
	p := newRawPathProxy(t, func(c *Config) {
		c.Tap = func(workload, user, method, path string, obj object.Object) {
			mu.Lock()
			defer mu.Unlock()
			tapped = append(tapped, obj.Kind()+"/"+obj.Name())
		}
	})
	if rec := postJSON(t, p, goodDeployment()); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if m := p.Metrics(); m.RawAllowed != 0 {
		t.Errorf("tap-equipped proxy used the decode-free path: %+v", m)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(tapped) != 1 || tapped[0] != "Deployment/web" {
		t.Errorf("tapped = %v", tapped)
	}
}

// TestPooledBuffersSurviveConcurrency hammers the proxy with concurrent
// uniquely-named requests through the echo transport: a pooled body
// buffer recycled too early (or shared across requests) breaks the echo.
func TestPooledBuffersSurviveConcurrency(t *testing.T) {
	p := newRawPathProxy(t, nil)
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				o := goodDeployment()
				object.Set(o, "metadata.name", fmt.Sprintf("web-%d-%d", g, i))
				body, err := json.Marshal(o)
				if err != nil {
					errs <- err
					return
				}
				req := httptest.NewRequest(http.MethodPost,
					"/apis/apps/v1/namespaces/default/deployments", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				p.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("g%d i%d: status %d: %s", g, i, rec.Code, rec.Body.String())
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), body) {
					errs <- fmt.Errorf("g%d i%d: echoed body corrupted", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m := p.Metrics(); m.RawAllowed != goroutines*perG {
		t.Errorf("RawAllowed = %d, want %d", m.RawAllowed, goroutines*perG)
	}
}

// postYAML serializes the object as a YAML manifest and posts it with a
// YAML content type.
func postYAML(t *testing.T, p *Proxy, o object.Object) *httptest.ResponseRecorder {
	t.Helper()
	y, err := o.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost,
		"/apis/apps/v1/namespaces/default/deployments", bytes.NewReader(y))
	req.Header.Set("Content-Type", "application/yaml")
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
	return rec
}

// TestRawFastPathYAMLVouches: a plain YAML manifest of an enforce-mode
// workload is decided straight off the wire bytes, never decoded.
func TestRawFastPathYAMLVouches(t *testing.T) {
	p := newRawPathProxy(t, nil)
	o := goodDeployment()
	// The YAML encoder renders float64(2) as "2.0", which the raw
	// matcher (correctly) refuses to vouch for against an int-typed
	// policy cell; an integral literal keeps the body on the fast path.
	if err := object.Set(o, "spec.replicas", int64(2)); err != nil {
		t.Fatal(err)
	}
	if rec := postYAML(t, p, o); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if m := p.Metrics(); m.RawAllowed != 1 {
		t.Errorf("YAML body was not decided on the raw path: %+v", m)
	}
}

// TestRawFastPathYAMLFloatForIntFallsBack: a YAML float literal feeding
// an int-typed policy cell is undecidable on the raw path — the proxy
// must fall back to the decode path and still allow the request.
func TestRawFastPathYAMLFloatForIntFallsBack(t *testing.T) {
	p := newRawPathProxy(t, nil)
	if rec := postYAML(t, p, goodDeployment()); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if m := p.Metrics(); m.RawAllowed != 0 {
		t.Errorf("undecidable YAML body was vouched for on the raw path: %+v", m)
	}
}

// TestRawFastPathYAMLDeniesViaDecode: a violating YAML body is never
// vouched for by the raw pass; the decode path denies it with full
// diagnostics.
func TestRawFastPathYAMLDeniesViaDecode(t *testing.T) {
	p := newRawPathProxy(t, nil)
	o := badDeployment()
	if err := object.Set(o, "spec.replicas", int64(2)); err != nil {
		t.Fatal(err)
	}
	rec := postYAML(t, p, o)
	if rec.Code != http.StatusForbidden {
		t.Fatalf("violating YAML body not denied: status %d: %s", rec.Code, rec.Body.String())
	}
	if m := p.Metrics(); m.RawAllowed != 0 {
		t.Errorf("violating YAML body was vouched for: %+v", m)
	}
}

// TestRawFastPathInt64PrecisionEndToEnd: the wire-to-verdict pipeline
// must not round large integers before validation (satellite regression
// test with an int64-overflowing securityContext value).
func TestRawFastPathInt64PrecisionEndToEnd(t *testing.T) {
	pinned := mustParse(t, `
apiVersion: v1
kind: Pod
metadata:
  name: p
  namespace: default
spec:
  securityContext:
    runAsUser: 9007199254740993
`)
	pol, err := buildPolicy(pinned)
	if err != nil {
		t.Fatal(err)
	}
	p := newProxy(t, Config{Upstream: "http://upstream.invalid", Transport: echoTransport{}}, pol, 0)
	exact := []byte(`{"apiVersion":"v1","kind":"Pod","metadata":{"name":"p","namespace":"default"},"spec":{"securityContext":{"runAsUser":9007199254740993}}}`)
	neighbor := bytes.Replace(exact, []byte("9007199254740993"), []byte("9007199254740992"), 1)

	send := func(body []byte) int {
		req := httptest.NewRequest(http.MethodPost,
			"/api/v1/namespaces/default/pods", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := send(exact); code != http.StatusOK {
		t.Fatalf("exact pinned value denied: %d", code)
	}
	if code := send(neighbor); code != http.StatusForbidden {
		t.Fatalf("float53 neighbor of the pinned value allowed: %d — number precision lost before validation", code)
	}
}

func buildPolicy(docs ...object.Object) (*validator.Validator, error) {
	return validator.Build(docs, validator.BuildOptions{Workload: "pinned"})
}
