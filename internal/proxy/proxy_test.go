package proxy

import (
	"crypto/tls"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/audit"
	"repro/internal/certs"
	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/validator"
)

// newProxy builds a proxy enforcing v as the one cluster-wide policy
// (zero Selector) of a fresh registry whose decision cache holds
// cacheSize entries (0 disables it); cfg supplies everything else.
func newProxy(t testing.TB, cfg Config, v *validator.Validator, cacheSize int) *Proxy {
	t.Helper()
	cfg.Registry = registry.New(registry.Config{CacheSize: cacheSize})
	if _, err := cfg.Registry.Register(v.Workload, registry.Selector{}, v); err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testPolicy builds a minimal workload policy allowing Deployments shaped
// like deployment() below plus ConfigMaps.
func testPolicy(t *testing.T) *validator.Validator {
	t.Helper()
	corpus := []object.Object{
		mustParse(t, `
apiVersion: apps/v1
kind: Deployment
metadata:
  name: kfrel-web
  namespace: default
spec:
  replicas: int
  template:
    spec:
      containers:
      - name: web
        image: "docker.io/bitnami/web:__KF_STRING__"
        securityContext:
          runAsNonRoot: true
`),
		mustParse(t, `
apiVersion: v1
kind: ConfigMap
metadata:
  name: kfrel-cm
  namespace: default
data:
  key: string
`),
	}
	v, err := validator.Build(corpus, validator.BuildOptions{
		Workload: "test", ReleaseName: "kfrel",
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustParse(t *testing.T, s string) object.Object {
	t.Helper()
	o, err := object.ParseManifest([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func goodDeployment() object.Object {
	return object.Object{
		"apiVersion": "apps/v1",
		"kind":       "Deployment",
		"metadata":   map[string]any{"name": "web", "namespace": "default"},
		"spec": map[string]any{
			"replicas": float64(2),
			"template": map[string]any{"spec": map[string]any{
				"containers": []any{map[string]any{
					"name":  "web",
					"image": "docker.io/bitnami/web:1.0",
					"securityContext": map[string]any{
						"runAsNonRoot": true,
					},
				}},
			}},
		},
	}
}

func badDeployment() object.Object {
	d := goodDeployment()
	_ = object.Set(d, "spec.template.spec.hostNetwork", true)
	return d
}

// httpFixture wires client → proxy → apiserver over plain HTTP.
type httpFixture struct {
	proxy    *Proxy
	proxyTS  *httptest.Server
	api      *apiserver.Server
	apiTS    *httptest.Server
	auditLog *audit.Log
}

func newHTTPFixture(t *testing.T) *httpFixture {
	t.Helper()
	f := &httpFixture{auditLog: &audit.Log{}}
	api, err := apiserver.New(apiserver.Config{
		Store:           store.New(),
		Audit:           f.auditLog,
		FrontProxyUsers: []string{"kubefence-proxy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.api = api
	f.apiTS = httptest.NewServer(api)
	t.Cleanup(f.apiTS.Close)

	f.proxy = newProxy(t, Config{Upstream: f.apiTS.URL, ProxyUser: "kubefence-proxy"}, testPolicy(t), 0)
	f.proxyTS = httptest.NewServer(f.proxy)
	t.Cleanup(f.proxyTS.Close)
	return f
}

func TestConformingRequestForwarded(t *testing.T) {
	f := newHTTPFixture(t)
	c := client.New(f.proxyTS.URL, client.WithUser("operator"))
	created, err := c.Create(goodDeployment())
	if err != nil {
		t.Fatalf("conforming request denied: %v", err)
	}
	if rv, _ := object.GetString(created, "metadata.resourceVersion"); rv == "" {
		t.Error("response not from API server (no resourceVersion)")
	}
	m := f.proxy.Metrics()
	if m.Requests != 1 || m.Inspected != 1 || m.Denied != 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestViolatingRequestBlocked(t *testing.T) {
	f := newHTTPFixture(t)
	c := client.New(f.proxyTS.URL, client.WithUser("attacker"))
	_, err := c.Create(badDeployment())
	if !client.IsForbidden(err) {
		t.Fatalf("err = %v, want 403", err)
	}
	if !strings.Contains(err.Error(), "KubeFence") {
		t.Errorf("error should identify KubeFence: %v", err)
	}
	if !strings.Contains(err.Error(), "hostNetwork") {
		t.Errorf("error should name the offending field: %v", err)
	}
	// The request never reached the API server.
	if f.auditLog.Len() != 0 {
		t.Errorf("API server saw %d requests, want 0", f.auditLog.Len())
	}
	// Violation log captured details for forensics.
	viols := f.proxy.Violations()
	if len(viols) != 1 {
		t.Fatalf("violations = %d", len(viols))
	}
	v := viols[0]
	if v.User != "attacker" || v.Kind != "Deployment" || len(v.Violations) == 0 {
		t.Errorf("record = %+v", v)
	}
	m := f.proxy.Metrics()
	if m.Denied != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestReadRequestsPassThrough(t *testing.T) {
	f := newHTTPFixture(t)
	c := client.New(f.proxyTS.URL, client.WithUser("operator"))
	if _, err := c.Create(goodDeployment()); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("Deployment", "default", "web")
	if err != nil {
		t.Fatalf("get through proxy: %v", err)
	}
	if got.Name() != "web" {
		t.Errorf("got %v", got.Name())
	}
	if _, err := c.List("Deployment", "default"); err != nil {
		t.Errorf("list through proxy: %v", err)
	}
	if err := c.Delete("Deployment", "default", "web"); err != nil {
		t.Errorf("delete through proxy: %v", err)
	}
	m := f.proxy.Metrics()
	if m.Inspected != 1 { // only the create carried a body to inspect
		t.Errorf("inspected = %d, want 1", m.Inspected)
	}
}

func TestIdentityPropagatedUpstream(t *testing.T) {
	f := newHTTPFixture(t)
	c := client.New(f.proxyTS.URL, client.WithUser("alice", "devs"))
	if _, err := c.Create(goodDeployment()); err != nil {
		t.Fatal(err)
	}
	events := f.auditLog.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].User != "alice" {
		t.Errorf("API server saw user %q, want alice (front-proxy propagation)", events[0].User)
	}
}

func TestIdentitySmugglingStripped(t *testing.T) {
	f := newHTTPFixture(t)
	// A client trying to set X-Forwarded-User itself must not win.
	data := `{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"cm","namespace":"default"},"data":{"key":"v"}}`
	req, err := http.NewRequest(http.MethodPost,
		f.proxyTS.URL+"/api/v1/namespaces/default/configmaps", strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Remote-User", "attacker")
	req.Header.Set("X-Forwarded-User", "cluster-admin")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	events := f.auditLog.Events()
	if len(events) != 1 || events[0].User != "attacker" {
		t.Errorf("API server saw %+v, want user attacker", events)
	}
}

// Upstream must be asked for the resource the client named and the
// proxy inspected: an escaped '?', '#' or '/' in a path segment stays
// part of the name, and the query stays the query.
func TestForwardKeepsEscapedRequestURI(t *testing.T) {
	var got string
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.RequestURI
	}))
	t.Cleanup(upstream.Close)
	for _, base := range []string{upstream.URL, upstream.URL + "/", upstream.URL + "/base", upstream.URL + "/b%2Fase"} {
		ts := httptest.NewServer(newProxy(t, Config{Upstream: base}, testPolicy(t), 0))
		t.Cleanup(ts.Close)
		prefix := strings.TrimSuffix(strings.TrimPrefix(base, upstream.URL), "/")
		for _, uri := range []string{
			"/api/v1/namespaces/default/configmaps/plain",
			"/api/v1/namespaces/default/configmaps?watch=1&labelSelector=a%3Db",
			"/api/v1/namespaces/default/configmaps/n%3Fwatch=1",
			"/api/v1/namespaces/default/configmaps/n%3Fwatch=1?watch=0",
			"/api/v1/namespaces/default/configmaps/n%23frag",
			"/api/v1/namespaces/default/configmaps/a%2Fb",
		} {
			got = ""
			resp, err := http.Get(ts.URL + uri)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if got != prefix+uri {
				t.Errorf("upstream %s: inbound %s reached upstream as %s", base, uri, got)
			}
		}
	}
}

func TestMalformedBodyRejected(t *testing.T) {
	f := newHTTPFixture(t)
	req, err := http.NewRequest(http.MethodPost,
		f.proxyTS.URL+"/api/v1/namespaces/default/configmaps", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("code = %d, want 403", resp.StatusCode)
	}
}

func TestSetValidatorSwapsPolicy(t *testing.T) {
	f := newHTTPFixture(t)
	c := client.New(f.proxyTS.URL, client.WithUser("op"))
	cm := object.Object{
		"apiVersion": "v1", "kind": "ConfigMap",
		"metadata": map[string]any{"name": "cm", "namespace": "default"},
		"data":     map[string]any{"key": "value"},
	}
	if _, err := c.Create(cm); err != nil {
		t.Fatalf("pre-swap: %v", err)
	}
	// Swap to a policy without ConfigMap.
	v2, err := validator.Build([]object.Object{mustParse(t, `
apiVersion: v1
kind: Secret
metadata:
  name: s
`)}, validator.BuildOptions{Workload: "narrow"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.proxy.Registry().Swap("test", v2); err != nil {
		t.Fatal(err)
	}
	cm2 := cm.DeepCopy()
	_ = object.Set(cm2, "metadata.name", "cm2")
	if _, err := c.Create(cm2); !client.IsForbidden(err) {
		t.Errorf("post-swap err = %v, want 403", err)
	}
}

func TestValidatorRequired(t *testing.T) {
	if _, err := New(Config{Upstream: "http://x"}); err == nil {
		t.Error("missing registry should error")
	}
	if _, err := New(Config{Registry: registry.New(registry.Config{})}); err == nil {
		t.Error("missing upstream should error")
	}
}

// TestCompleteMediationMTLS wires the full paper deployment: the API
// server accepts only mTLS connections with client certificates signed by
// the cluster CA; only the proxy holds one. Clients must go through the
// proxy; direct connections fail the TLS handshake.
func TestCompleteMediationMTLS(t *testing.T) {
	clusterCA, err := certs.NewCA("cluster-ca")
	if err != nil {
		t.Fatal(err)
	}
	proxyCA, err := certs.NewCA("kubefence-proxy-ca")
	if err != nil {
		t.Fatal(err)
	}
	apiCert, err := clusterCA.IssueServer("kube-apiserver", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	proxyClientCert, err := clusterCA.IssueClient("kubefence-proxy")
	if err != nil {
		t.Fatal(err)
	}
	proxyServerCert, err := proxyCA.IssueServer("kubefence", "127.0.0.1")
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
	apiTS := httptest.NewUnstartedServer(api)
	apiTS.TLS = certs.ServerTLSConfig(apiCert, clusterCA)
	apiTS.StartTLS()
	t.Cleanup(apiTS.Close)

	p := newProxy(t, Config{
		Upstream: apiTS.URL,
		Transport: &http.Transport{
			TLSClientConfig: certs.ClientTLSConfig(clusterCA, proxyClientCert),
		},
	}, testPolicy(t), 0)
	proxyTS := httptest.NewUnstartedServer(p)
	proxyTS.TLS = &tls.Config{
		Certificates: []tls.Certificate{proxyServerCert.TLSCertificate()},
		MinVersion:   tls.VersionTLS12,
	}
	proxyTS.StartTLS()
	t.Cleanup(proxyTS.Close)

	// A client trusting the proxy CA works through the proxy.
	httpClient := &http.Client{Transport: &http.Transport{
		TLSClientConfig: certs.ClientTLSConfig(proxyCA, nil),
	}}
	c := client.New(proxyTS.URL, client.WithHTTPClient(httpClient), client.WithUser("operator"))
	if _, err := c.Create(goodDeployment()); err != nil {
		t.Fatalf("through proxy: %v", err)
	}
	// Attacks are blocked at the proxy even over TLS.
	if _, err := c.Create(badDeployment()); !client.IsForbidden(err) {
		t.Errorf("attack err = %v, want 403", err)
	}

	// Direct connection to the API server without a client certificate
	// must fail at the TLS layer (complete mediation).
	direct := &http.Client{Transport: &http.Transport{
		TLSClientConfig: certs.ClientTLSConfig(clusterCA, nil),
	}}
	dc := client.New(apiTS.URL, client.WithHTTPClient(direct), client.WithUser("attacker"))
	if _, err := dc.Create(badDeployment()); err == nil {
		t.Fatal("direct API server access should fail without client cert")
	} else if client.IsForbidden(err) {
		t.Fatal("failure should be TLS-level, not authorization-level")
	}
}

// TestLiteralKeyHeaderReads: clientIdentity and ReadRequest read their
// headers by literal key, not through Header.Get / Values, which
// canonicalize only the key they are asked for; on every header map
// below, canonical or hand-built, the reads must return what Get and
// Values return.
func TestLiteralKeyHeaderReads(t *testing.T) {
	for name, h := range map[string]http.Header{
		"canonical keys": {"X-Remote-User": {"alice"}, "X-Remote-Group": {"devs"},
			"Content-Type": {"application/json"}},
		"lower-case keys": {"x-remote-user": {"alice"}, "x-remote-group": {"devs"},
			"content-type": {"text/plain"}},
		"empty first user":         {"X-Remote-User": {"", "mallory"}, "X-Remote-Group": {"system:masters"}},
		"several groups":           {"X-Remote-User": {"bob"}, "X-Remote-Group": {"a", "b", ""}},
		"user without groups":      {"X-Remote-User": {"carol"}, "Content-Type": {"application/yaml"}},
		"no values":                {"X-Remote-User": {}, "X-Remote-Group": {}, "Content-Type": {}},
		"content type parameters":  {"Content-Type": {"application/json; charset=utf-8", "text/plain"}},
		"unsupported content type": {"Content-Type": {"text/plain"}},
		"absent headers":           {},
	} {
		r := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/default/configmaps",
			strings.NewReader(`{"kind":"ConfigMap"}`))
		r.Header = h

		wantUser, wantGroups := "system:anonymous", []string(nil)
		if u := h.Get("X-Remote-User"); u != "" {
			wantUser, wantGroups = u, h.Values("X-Remote-Group")
		}
		if user, groups := clientIdentity(r); user != wantUser || !reflect.DeepEqual(groups, wantGroups) {
			t.Errorf("%s: identity %q %q, want %q %q", name, user, groups, wantUser, wantGroups)
		}

		wantFormat, ok := bodyFormat(h.Get("Content-Type"))
		wantCode := 0
		if !ok {
			wantCode = http.StatusUnsupportedMediaType
		}
		q := ReadRequest(r)
		q.Release()
		if q.failCode != wantCode || (ok && q.format != wantFormat) {
			t.Errorf("%s: format %v, fail code %d, want %v, %d", name, q.format, q.failCode, wantFormat, wantCode)
		}
	}
}
