package proxy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/validator"
)

// postRaw sends one JSON body through the proxy in-process.
func postRaw(p *Proxy, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/default/configmaps", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Remote-User", "mallory")
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
	return rec
}

// recordBytes sizes what a retained denial record pins: every string it
// holds.
func recordBytes(rec ViolationRecord) int {
	return len(rec.Workload) + len(rec.User) + len(rec.Method) + len(rec.RequestURI) + len(rec.Kind) + len(rec.Name) +
		violationBytes(rec.Violations)
}

// violationBytes sizes the strings a violation list holds.
func violationBytes(vs []validator.Violation) int {
	n := 0
	for _, v := range vs {
		n += len(v.Path) + len(v.Reason) + len(v.Got)
	}
	return n
}

// TestDecodeErrorsDoNotEchoAttackerSizedInput: a decode error is copied
// into the 403 body and into the retained denial record, so the proxy's
// count-bounded violation log is bounded in bytes only if the error is.
// A body that duplicates a 1 MiB key, or overflows with a 1 MiB number
// literal, must cost under 1 KiB in each.
func TestDecodeErrorsDoNotEchoAttackerSizedInput(t *testing.T) {
	key := strings.Repeat("k", 1<<20)
	for name, body := range map[string]string{
		"duplicate key":   `{"kind":"ConfigMap","` + key + `":1,"` + key + `":2}`,
		"number overflow": `{"kind":"ConfigMap","data":{"n":1` + strings.Repeat("0", 1<<20) + `}}`,
	} {
		p := newRawPathProxy(t, nil)
		resp := postRaw(p, []byte(body))
		if resp.Code != http.StatusForbidden {
			t.Fatalf("%s: code = %d, want 403", name, resp.Code)
		}
		if n := resp.Body.Len(); n >= 1024 {
			t.Errorf("%s: 403 body is %d bytes, want < 1 KiB", name, n)
		}
		recs := p.Violations()
		if len(recs) != 1 || !strings.Contains(recs[0].Violations[0].Reason, "not a valid Kubernetes object") {
			t.Fatalf("%s: denial records = %+v, want one undecodable-body record", name, recs)
		}
		if n := recordBytes(recs[0]); n >= 1024 {
			t.Errorf("%s: retained denial record holds %d bytes, want < 1 KiB", name, n)
		}
	}
}

// TestDenialRetainsAndEchoesBoundedBytes: a denial record is retained
// by the proxy's denial log and echoed in the 403, its list is kept by
// the decision cache, and a shadow-mode workload's would-deny record is
// handed to the shadow callback — so what one denied request pins must not be the
// attacker's to size. A 4 MiB string in a denied field (Got is cut to
// 256 bytes), 350 k unknown fields (the registry cuts the list to
// registry.MaxViolations plus one "+N more violations" entry), a 4 MiB
// unknown key (its Path is cut like a Got) and a 4 MiB unknown kind (so
// is the kind in the reason) must each cost under 16 KiB in every one
// of them, on the raw path and on the decode path.
func TestDenialRetainsAndEchoesBoundedBytes(t *testing.T) {
	const bound = 16 << 10
	deployment := goodDeployment()
	deployment["spec"].(map[string]any)["replicas"] = int64(2)
	container := deployment["spec"].(map[string]any)["template"].(map[string]any)["spec"].(map[string]any)["containers"].([]any)[0]
	container.(map[string]any)["image"] = "evil.io/" + strings.Repeat("x", maxInspectBytes-1024)
	bigString, err := json.Marshal(deployment)
	if err != nil {
		t.Fatal(err)
	}
	const fields = 350_000
	var b strings.Builder
	b.WriteString(`{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"cm"},"data":{`)
	for i := 0; i < fields; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`"` + strconv.FormatInt(int64(i), 36) + `":0`)
	}
	b.WriteString("}}")
	manyFields := []byte(b.String())
	huge := strings.Repeat("k", maxInspectBytes-1024)
	bigKey := []byte(`{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"cm"},"data":{"` + huge + `":"v"}}`)
	bigKind := []byte(`{"apiVersion":"v1","kind":"` + huge + `","metadata":{"name":"cm"}}`)
	hostile := map[string][]byte{"4 MiB denied string": bigString, "350 k unknown fields": manyFields,
		"4 MiB unknown key": bigKey, "4 MiB unknown kind": bigKind}
	for name, body := range hostile {
		if len(body) > maxInspectBytes {
			t.Fatalf("%s: %d bytes exceed the inspection cap", name, len(body))
		}
	}
	// capped checks a list the 350 k-field body left behind.
	capped := func(what string, vs []validator.Violation) {
		t.Helper()
		want := fmt.Sprintf("+%d more violations", fields-registry.MaxViolations)
		if len(vs) != registry.MaxViolations+1 || vs[registry.MaxViolations].Reason != want {
			t.Errorf("%s: %d violations retained, last %+v, want %d and %q",
				what, len(vs), vs[len(vs)-1], registry.MaxViolations+1, want)
		}
	}

	for _, disableRaw := range []bool{false, true} {
		for name, body := range hostile {
			what := fmt.Sprintf("%s (raw off: %v)", name, disableRaw)
			p := newProxy(t, Config{Upstream: "http://upstream.invalid", Transport: echoTransport{},
				DisableRawFastPath: disableRaw}, testPolicy(t), 16)
			resp := postRaw(p, body)
			if resp.Code != http.StatusForbidden {
				t.Fatalf("%s: code = %d, want 403", what, resp.Code)
			}
			if n := resp.Body.Len(); n >= bound {
				t.Errorf("%s: 403 body is %d bytes, want < %d", what, n, bound)
			}
			recs := p.Violations()
			if len(recs) != 1 {
				t.Fatalf("%s: %d denial records, want 1", what, len(recs))
			}
			if n := recordBytes(recs[0]); n >= bound {
				t.Errorf("%s: retained denial record holds %d bytes, want < %d", what, n, bound)
			}
			workload := p.Registry().Workloads()[0]
			snap, err := p.Registry().ExportCache(workload)
			if err != nil {
				t.Fatal(err)
			}
			for _, ce := range snap.Entries {
				if n := violationBytes(ce.Violations); n >= bound {
					t.Errorf("%s: cached decision holds %d bytes, want < %d", what, n, bound)
				}
			}
			if name == "350 k unknown fields" {
				capped(what+" denial record", recs[0].Violations)
				if len(snap.Entries) != 1 {
					t.Fatalf("%s: %d cached decisions, want 1", what, len(snap.Entries))
				}
				capped(what+" cached decision", snap.Entries[0].Violations)
			}

			// The same body under a shadow-mode policy: forwarded, and
			// recorded as a would-deny.
			var shadowed []ViolationRecord
			p = newProxy(t, Config{Upstream: "http://upstream.invalid", Transport: echoTransport{},
				DisableRawFastPath: disableRaw,
				OnShadowViolation:  func(rec ViolationRecord) { shadowed = append(shadowed, rec) }}, testPolicy(t), 16)
			if err := p.Registry().SetMode(workload, registry.ModeShadow); err != nil {
				t.Fatal(err)
			}
			if resp := postRaw(p, body); resp.Code != http.StatusOK {
				t.Fatalf("%s shadowed: code = %d, want 200", what, resp.Code)
			}
			if len(shadowed) != 1 {
				t.Fatalf("%s: %d shadow callbacks, want 1", what, len(shadowed))
			}
			if n := recordBytes(shadowed[0]); n >= bound {
				t.Errorf("%s: shadow callback holds %d bytes, want < %d", what, n, bound)
			}
			if name == "350 k unknown fields" {
				capped(what+" shadow callback", shadowed[0].Violations)
			}
		}
	}
}

// TestDenialBoundsClientHeadersAndPath: the user a denial record keeps
// comes from X-Remote-User, its RequestURI from the request line and a
// 415's reason quotes the Content-Type, all three the client's to size
// (net/http admits 1 MiB of headers). A 64 KiB user, a 32 KiB path and,
// for the 415, a 64 KiB content type must cost under 16 KiB in the
// response and in the retained record, on a policy denial and on a
// fail-closed rejection; the forwarded X-Forwarded-User of an allowed
// request stays whole.
func TestDenialBoundsClientHeadersAndPath(t *testing.T) {
	const bound = 16 << 10
	user := "u" + strings.Repeat("x", 64<<10-1)
	path := "/api/v1/namespaces/default/deployments/" + strings.Repeat("p", 32<<10)
	denied := goodDeployment()
	denied["spec"].(map[string]any)["template"].(map[string]any)["spec"].(map[string]any)["hostNetwork"] = true
	deniedBody, err := json.Marshal(denied)
	if err != nil {
		t.Fatal(err)
	}
	allowedBody, err := json.Marshal(goodDeployment())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		contentType string
		body        []byte
		code        int
	}{
		{"403 policy violation", "application/json", deniedBody, http.StatusForbidden},
		{"415 content type", "application/" + strings.Repeat("t", 64<<10), allowedBody, http.StatusUnsupportedMediaType},
		{"200 allowed", "application/json", allowedBody, http.StatusOK},
	} {
		tr := &captureTransport{}
		p := newProxy(t, Config{Upstream: "http://upstream.invalid", Transport: tr}, testPolicy(t), 16)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(tc.body))
		req.Header.Set("Content-Type", tc.contentType)
		req.Header.Set("X-Remote-User", user)
		resp := httptest.NewRecorder()
		p.ServeHTTP(resp, req)
		if resp.Code != tc.code {
			t.Fatalf("%s: code = %d, want %d: %.200s", tc.name, resp.Code, tc.code, resp.Body.String())
		}
		if tc.code == http.StatusOK {
			if len(tr.got) != 1 || tr.got[0].Get("X-Forwarded-User") != user {
				t.Errorf("%s: the forwarded X-Forwarded-User is not the client's whole user", tc.name)
			}
			continue
		}
		if n := resp.Body.Len(); n >= bound {
			t.Errorf("%s: response body is %d bytes, want < %d", tc.name, n, bound)
		}
		recs := p.Violations()
		if len(recs) != 1 {
			t.Fatalf("%s: %d denial records, want 1", tc.name, len(recs))
		}
		if n := recordBytes(recs[0]); n >= bound {
			t.Errorf("%s: retained denial record holds %d bytes, want < %d", tc.name, n, bound)
		}
		if !strings.HasPrefix(recs[0].User, "ux") || !strings.HasPrefix(recs[0].RequestURI, "/api/v1/namespaces/default/") {
			t.Errorf("%s: record keeps user %.20q and path %.40q, want their leading bytes", tc.name,
				recs[0].User, recs[0].RequestURI)
		}
	}
}

// TestHostileBodyAtInspectionCap sends the deepest body the inspection
// cap admits — 4 MiB of '[' — through the whole enforcement point: it
// must fail closed at the decoder's depth limit, promptly and with a
// small audit record, not exhaust the stack or scan the rest.
func TestHostileBodyAtInspectionCap(t *testing.T) {
	p := newRawPathProxy(t, nil)
	start := time.Now()
	resp := postRaw(p, bytes.Repeat([]byte{'['}, maxInspectBytes))
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("hostile body took %v to deny", el)
	}
	if resp.Code != http.StatusForbidden {
		t.Fatalf("code = %d, want 403", resp.Code)
	}
	recs := p.Violations()
	if len(recs) != 1 || !strings.Contains(recs[0].Violations[0].Reason, "max nesting depth") {
		t.Fatalf("denial records = %+v, want one nesting-depth rejection", recs)
	}
	if rec := recs[0]; rec.User != "mallory" || rec.Method != http.MethodPost || recordBytes(rec) >= 1024 {
		t.Errorf("audit record = %+v (%d bytes), want mallory's POST under 1 KiB", rec, recordBytes(rec))
	}
	if m := p.Metrics(); m.Denied != 1 || m.Inspected != 1 {
		t.Errorf("metrics = %+v, want one inspected, one denied", m)
	}
}

// recordingBody yields one JSON chunk, then err, and counts Close calls.
type recordingBody struct {
	sent   bool
	err    error
	closed int
}

func (b *recordingBody) Read(p []byte) (int, error) {
	if b.sent {
		return 0, b.err
	}
	b.sent = true
	return copy(p, `{"kind":"ConfigMap"}`), nil
}

func (b *recordingBody) Close() error {
	b.closed++
	return nil
}

// TestReadRequestClosesBody: the body is closed exactly once whether the
// read ends cleanly or fails mid-stream.
func TestReadRequestClosesBody(t *testing.T) {
	for _, tc := range []struct {
		err      error
		wantCode int
	}{
		{io.EOF, 0},
		{errors.New("connection reset mid-body"), http.StatusBadRequest},
	} {
		body := &recordingBody{err: tc.err}
		req := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/default/configmaps", nil)
		req.Body = body
		q := ReadRequest(req)
		q.Release()
		if q.failCode != tc.wantCode {
			t.Errorf("read ending in %v: fail code = %d (%s), want %d", tc.err, q.failCode, q.failReason, tc.wantCode)
		}
		if body.closed != 1 {
			t.Errorf("read ending in %v: body closed %d times, want 1", tc.err, body.closed)
		}
	}
}

// TestDenyResponseGolden pins the denial body byte for byte: sorted
// keys, encoding/json's HTML-safe escapes for '<', '>' and '&', raw
// UTF-8 for other runes, one trailing newline. The typed struct that
// encodes it must stay indistinguishable from the map it replaced.
func TestDenyResponseGolden(t *testing.T) {
	p := newRawPathProxy(t, nil)
	req := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/default/configmaps", nil)
	violations := []validator.Violation{
		{Path: "spec.containers[0].image", Reason: "value not allowed by <policy> & friends", Got: `"évil:lätest"`},
		{Reason: "object-level \"quoted\" reason"},
		{Path: "metadata.labels", Reason: "unknown field"},
	}
	for _, tc := range []struct {
		code       int
		violations []validator.Violation
		want       string
	}{
		{http.StatusForbidden, violations,
			`{"code":403,"details":{"violations":["spec.containers[0].image: value not allowed by \u003cpolicy\u003e \u0026 friends (got \"évil:lätest\")","object-level \"quoted\" reason","metadata.labels: unknown field"]},"kind":"Status","message":"request blocked by KubeFence policy: spec.containers[0].image: value not allowed by \u003cpolicy\u003e \u0026 friends (got \"évil:lätest\"); object-level \"quoted\" reason; metadata.labels: unknown field","reason":"KubeFencePolicyViolation","status":"Failure"}` + "\n"},
		{http.StatusRequestEntityTooLarge, violations[2:],
			`{"code":413,"details":{"violations":["metadata.labels: unknown field"]},"kind":"Status","message":"request rejected by KubeFence enforcement point: metadata.labels: unknown field","reason":"KubeFenceRequestRejected","status":"Failure"}` + "\n"},
		{http.StatusForbidden, nil,
			`{"code":403,"details":{"violations":[]},"kind":"Status","message":"request blocked by KubeFence policy: ","reason":"KubeFencePolicyViolation","status":"Failure"}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		p.deny(rec, req, "mallory", nil, "ConfigMap", "cm", tc.code, tc.violations)
		if rec.Code != tc.code || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("code = %d, content type = %q", rec.Code, rec.Header().Get("Content-Type"))
		}
		if got := rec.Body.String(); got != tc.want {
			t.Errorf("denial body changed:\n got: %s\nwant: %s", got, tc.want)
		}
	}
}
