package proxy

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// failFixture builds a proxy over a recording upstream so tests can
// assert nothing was forwarded.
func failFixture(t *testing.T) (*Proxy, *httptest.Server, *int) {
	t.Helper()
	forwarded := 0
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		forwarded++
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(upstream.Close)
	p, err := New(Config{Upstream: upstream.URL, Validator: testPolicy(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)
	return p, ts, &forwarded
}

func post(t *testing.T, url, contentType, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// reasonsOf flattens every recorded denial reason.
func reasonsOf(p *Proxy) []string {
	var out []string
	for _, rec := range p.Violations() {
		for _, v := range rec.Violations {
			out = append(out, v.Reason)
		}
	}
	return out
}

// TestFailClosedDistinctOutcomes injects the four body-level failures —
// malformed JSON, oversized body, unsupported content type, and a
// mid-stream connection close — and checks each fails closed (nothing
// forwarded upstream) with its own status code and audit-able denial
// reason, so forensics can tell the cases apart.
func TestFailClosedDistinctOutcomes(t *testing.T) {
	p, ts, forwarded := failFixture(t)
	target := ts.URL + "/api/v1/namespaces/default/configmaps"

	// 1. Malformed JSON body.
	if resp := post(t, target, "application/json", `{"kind":"ConfigMap",`); resp.StatusCode != http.StatusForbidden {
		t.Errorf("malformed body: code = %d, want 403", resp.StatusCode)
	}

	// 2. Oversized body.
	huge := `{"kind":"ConfigMap","data":{"blob":"` + strings.Repeat("A", maxInspectBytes) + `"}}`
	if resp := post(t, target, "application/json", huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: code = %d, want 413", resp.StatusCode)
	}

	// 3. Unsupported content type with a well-formed body.
	if resp := post(t, target, "application/xml", `<ConfigMap/>`); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("wrong content type: code = %d, want 415", resp.StatusCode)
	}

	// 4. Mid-stream connection close: announce more bytes than sent.
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /api/v1/namespaces/default/configmaps HTTP/1.1\r\n"+
		"Host: %s\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"kind\":", u.Host)
	conn.Close()

	wantReasons := []string{
		"not a valid Kubernetes object",
		"inspection limit",
		"unsupported content type",
		"could not be read",
	}
	deadline := time.Now().Add(5 * time.Second)
	var missing []string
	for {
		missing = missing[:0]
		reasons := strings.Join(reasonsOf(p), "\n")
		for _, want := range wantReasons {
			if !strings.Contains(reasons, want) {
				missing = append(missing, want)
			}
		}
		if len(missing) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("denial records missing distinct reasons %v; have:\n%s", missing, reasons)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if *forwarded != 0 {
		t.Errorf("%d failing requests were forwarded upstream", *forwarded)
	}
	// Only the policy-level rejection (the malformed body's 403) counts
	// as a denial; transport-level failures are recorded but must not
	// skew the denial-rate metric.
	if m := p.Metrics(); m.Denied != 1 {
		t.Errorf("denied counter = %d, want 1 (policy denials only)", m.Denied)
	}
	if recs := p.Violations(); len(recs) < 4 {
		t.Errorf("violation records = %d, want >= 4 (every failure audit-able)", len(recs))
	}
}

// TestEmptyContentTypeDefaultsToJSON keeps bare tooling working: an
// inspected request without a Content-Type is parsed as JSON, validated,
// and forwarded when conforming.
func TestEmptyContentTypeDefaultsToJSON(t *testing.T) {
	_, ts, forwarded := failFixture(t)
	body, err := json.Marshal(goodDeployment())
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/apis/apps/v1/namespaces/default/deployments", "", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("code = %d, want 200", resp.StatusCode)
	}
	if *forwarded != 1 {
		t.Errorf("forwarded = %d, want 1", *forwarded)
	}
}

// TestContentTypeRouting pins the media-type allowlist: real clients
// attach parameters ("application/json; charset=utf-8") that a proper
// RFC 2045 parse must not reject, the documented YAML aliases all route
// to the YAML decoder, and everything else — including types that merely
// CONTAIN the substring "json", which the old substring match waved
// through — fails closed with 415.
func TestContentTypeRouting(t *testing.T) {
	jsonBody := `{"kind":"ConfigMap","apiVersion":"v1",` +
		`"metadata":{"name":"kfrel-cm","namespace":"default"},"data":{"key":"v"}}`
	yamlBody := "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: kfrel-cm\n  namespace: default\ndata:\n  key: v\n"

	cases := []struct {
		name        string
		contentType string
		body        string
		wantCode    int
	}{
		{"json bare", "application/json", jsonBody, http.StatusOK},
		{"json with charset", "application/json; charset=utf-8", jsonBody, http.StatusOK},
		{"json uppercase type", "Application/JSON", jsonBody, http.StatusOK},
		{"text json", "text/json", jsonBody, http.StatusOK},
		{"text json with charset", "text/json; charset=utf-8", jsonBody, http.StatusOK},
		{"yaml bare", "application/yaml", yamlBody, http.StatusOK},
		{"yaml with charset", "application/yaml; charset=utf-8", yamlBody, http.StatusOK},
		{"text yaml", "text/yaml", yamlBody, http.StatusOK},
		{"x-yaml", "application/x-yaml", yamlBody, http.StatusOK},
		{"xml", "application/xml", `<ConfigMap/>`, http.StatusUnsupportedMediaType},
		{"substring json smuggle", "application/not-json-at-all", jsonBody, http.StatusUnsupportedMediaType},
		{"substring yaml smuggle", "text/yamlish", yamlBody, http.StatusUnsupportedMediaType},
		{"protobuf", "application/vnd.kubernetes.protobuf", jsonBody, http.StatusUnsupportedMediaType},
		{"malformed parameters", "application/json; charset", jsonBody, http.StatusUnsupportedMediaType},
		{"not a media type", "not a media type ;;;", jsonBody, http.StatusUnsupportedMediaType},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts, forwarded := failFixture(t)
			resp := post(t, ts.URL+"/api/v1/namespaces/default/configmaps", tc.contentType, tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("content type %q: code = %d, want %d",
					tc.contentType, resp.StatusCode, tc.wantCode)
			}
			wantForwarded := 0
			if tc.wantCode == http.StatusOK {
				wantForwarded = 1
			}
			if *forwarded != wantForwarded {
				t.Errorf("forwarded = %d, want %d", *forwarded, wantForwarded)
			}
		})
	}
}
