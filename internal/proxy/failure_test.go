package proxy

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
)

// TestUpstreamUnreachable injects an upstream failure: the proxy must turn
// connection errors into 502 responses, never hang or crash.
func TestUpstreamUnreachable(t *testing.T) {
	// Nothing listens on port 1.
	ts := httptest.NewServer(newProxy(t, Config{Upstream: "http://127.0.0.1:1"}, testPolicy(t), 0))
	defer ts.Close()

	c := client.New(ts.URL, client.WithUser("op"))
	_, err := c.Create(goodDeployment())
	ae, ok := err.(*client.APIError)
	if !ok || ae.Code != http.StatusBadGateway {
		t.Errorf("err = %v, want 502", err)
	}
	// Validation still runs before the failed forward: a bad request is
	// 403, not 502 — enforcement does not depend on upstream health.
	_, err = c.Create(badDeployment())
	if !client.IsForbidden(err) {
		t.Errorf("attack err = %v, want 403 even with upstream down", err)
	}
}

// TestUpstreamDropsMidResponse injects a connection reset mid-response.
func TestUpstreamDropsMidResponse(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Fatal("no hijacker")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Fatal(err)
		}
		conn.Close() // drop without responding
	}))
	defer broken.Close()

	ts := httptest.NewServer(newProxy(t, Config{Upstream: broken.URL}, testPolicy(t), 0))
	defer ts.Close()

	c := client.New(ts.URL, client.WithUser("op"))
	_, err := c.Create(goodDeployment())
	if err == nil {
		t.Fatal("expected error from dropped upstream")
	}
	if client.IsForbidden(err) {
		t.Error("drop must not masquerade as a policy denial")
	}
}

// TestUpstreamSlowDoesNotBlockValidation: denials respond immediately even
// while other requests sit on a slow upstream.
func TestConcurrentMixedTraffic(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{"kind":"Deployment","metadata":{"name":"x","resourceVersion":"1"}}`))
	}))
	defer upstream.Close()
	p := newProxy(t, Config{Upstream: upstream.URL}, testPolicy(t), 0)
	ts := httptest.NewServer(p)
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(attack bool) {
			defer wg.Done()
			c := client.New(ts.URL, client.WithUser("op"))
			for j := 0; j < 8; j++ {
				var err error
				if attack {
					_, err = c.Create(badDeployment())
					if !client.IsForbidden(err) {
						errs <- err
					}
				} else {
					if _, err = c.Create(goodDeployment()); err != nil {
						errs <- err
					}
				}
			}
		}(i%2 == 0)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent traffic error: %v", err)
	}
	m := p.Metrics()
	if m.Denied != 64 { // 8 attackers × 8 requests
		t.Errorf("denied = %d, want 64", m.Denied)
	}
}

// TestHugeBodyRejected: bodies beyond the proxy's limit are not buffered
// unboundedly.
func TestHugeBodyCapped(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer upstream.Close()
	p := newProxy(t, Config{Upstream: upstream.URL}, testPolicy(t), 0)
	ts := httptest.NewServer(p)
	defer ts.Close()

	huge := `{"kind":"ConfigMap","metadata":{"name":"big"},"data":{"blob":"` +
		strings.Repeat("A", 5<<20) + `"}}`
	req, err := http.NewRequest(http.MethodPost,
		ts.URL+"/api/v1/namespaces/default/configmaps", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Oversized bodies are denied outright (never truncated-then-parsed:
	// a truncated parse could validate a prefix of the real object) and
	// never buffered unboundedly.
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("code = %d, want 413 (oversized body denied)", resp.StatusCode)
	}
	found := false
	for _, rec := range p.Violations() {
		for _, v := range rec.Violations {
			if strings.Contains(v.Reason, "inspection limit") {
				found = true
			}
		}
	}
	if !found {
		t.Error("oversized body left no audit-able denial record")
	}
}

func TestViolationRecordSnapshotIsolated(t *testing.T) {
	f := newHTTPFixture(t)
	c := client.New(f.proxyTS.URL, client.WithUser("a"))
	if _, err := c.Create(badDeployment()); !client.IsForbidden(err) {
		t.Fatal(err)
	}
	snap := f.proxy.Violations()
	if len(snap) != 1 {
		t.Fatal("no record")
	}
	snap[0].User = "tampered"
	if f.proxy.Violations()[0].User == "tampered" {
		t.Error("snapshot aliases internal state")
	}
}
