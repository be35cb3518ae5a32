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
	cfg := Config{
		Upstream:  "http://upstream.invalid",
		Transport: echoTransport{},
		Validator: testPolicy(t),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
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
	if m := raw.Metrics(); m.RawAllowed != 0 || m.RawDenied != 0 {
		t.Errorf("uncached denial must take the decode path: %+v", m)
	}
}

func TestRawFastPathCachedDenialSkipsDecode(t *testing.T) {
	p := newRawPathProxy(t, func(c *Config) { c.CacheSize = 64 })
	first := postJSON(t, p, badDeployment())
	second := postJSON(t, p, badDeployment())
	if first.Code != http.StatusForbidden || second.Code != http.StatusForbidden {
		t.Fatalf("status %d/%d, want 403/403", first.Code, second.Code)
	}
	if first.Body.String() != second.Body.String() {
		t.Errorf("cached denial diverges from original:\nfirst:  %s\nsecond: %s",
			first.Body.String(), second.Body.String())
	}
	m := p.Metrics()
	if m.RawDenied != 1 {
		t.Errorf("RawDenied = %d, want 1 (second denial answered from raw bytes): %+v", m.RawDenied, m)
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

// TestRawFastPathTenantResolutionMatchesClassic: a YAML body whose
// metadata.namespace value sits on an indented continuation line names
// tenant b whatever the URL says. The raw path must resolve, judge and
// charge the same tenant the decode path does — a scan that read the
// field as absent fell back to the URL's tenant a, whose policy allows
// the body.
func TestRawFastPathTenantResolutionMatchesClassic(t *testing.T) {
	const body = "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cm\n" +
		"  namespace:\n    b\ndata:\n  mode: lenient\n"
	serve := func(disable bool) (int, map[string]uint64) {
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
		p := newRawPathProxy(t, func(c *Config) {
			c.Validator, c.Registry, c.DisableRawFastPath = nil, reg, disable
		})
		req := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/a/configmaps",
			strings.NewReader(body))
		req.Header.Set("Content-Type", "application/yaml")
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, req)
		charged := map[string]uint64{}
		for workload, m := range p.Registry().Metrics() {
			charged[workload] = m.Requests
		}
		return rec.Code, charged
	}
	rawCode, rawCharged := serve(false)
	classicCode, classicCharged := serve(true)
	if rawCode != classicCode || !reflect.DeepEqual(rawCharged, classicCharged) {
		t.Errorf("raw path: %d charged %v; decode path: %d charged %v",
			rawCode, rawCharged, classicCode, classicCharged)
	}
	if want := map[string]uint64{"a": 0, "b": 1}; classicCode != http.StatusForbidden ||
		!reflect.DeepEqual(classicCharged, want) {
		t.Errorf("decode path: %d charged %v, want 403 charged %v", classicCode, classicCharged, want)
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
	p, err := New(Config{
		Upstream:  "http://upstream.invalid",
		Transport: echoTransport{},
		Validator: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
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
