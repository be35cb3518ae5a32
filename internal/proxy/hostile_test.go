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
	n := len(rec.Workload) + len(rec.User) + len(rec.Method) + len(rec.RequestURI) + len(rec.Kind) + len(rec.Name)
	for _, v := range rec.Violations {
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
// by the workload's and the proxy's denial logs and echoed in the 403,
// so what one denied request pins must not be the attacker's to size.
// A 4 MiB string in a denied field (Got is cut to 256 bytes) and 350 k
// unknown fields (the list is cut to maxDenyViolations plus one
// "+N more violations" entry) must each cost under 16 KiB in the record
// and in the 403, on the raw path and on the decode path.
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
	if len(bigString) > maxInspectBytes || len(manyFields) > maxInspectBytes {
		t.Fatalf("hostile bodies of %d and %d bytes exceed the inspection cap", len(bigString), len(manyFields))
	}

	for _, disableRaw := range []bool{false, true} {
		for name, body := range map[string][]byte{"4 MiB denied string": bigString, "350 k unknown fields": manyFields} {
			p := newRawPathProxy(t, func(c *Config) { c.DisableRawFastPath = disableRaw })
			resp := postRaw(p, body)
			if resp.Code != http.StatusForbidden {
				t.Fatalf("%s (raw off: %v): code = %d, want 403", name, disableRaw, resp.Code)
			}
			if n := resp.Body.Len(); n >= bound {
				t.Errorf("%s (raw off: %v): 403 body is %d bytes, want < %d", name, disableRaw, n, bound)
			}
			recs := p.Violations()
			if len(recs) != 1 {
				t.Fatalf("%s (raw off: %v): %d denial records, want 1", name, disableRaw, len(recs))
			}
			if n := recordBytes(recs[0]); n >= bound {
				t.Errorf("%s (raw off: %v): retained denial record holds %d bytes, want < %d", name, disableRaw, n, bound)
			}
			for w, wrecs := range p.Registry().Violations() {
				if n := recordBytes(wrecs[0]); n >= bound {
					t.Errorf("%s (raw off: %v): workload %s retains %d bytes, want < %d", name, disableRaw, w, n, bound)
				}
			}
			if name == "350 k unknown fields" {
				vs := recs[0].Violations
				if want := fmt.Sprintf("+%d more violations", fields-maxDenyViolations); len(vs) != maxDenyViolations+1 || vs[maxDenyViolations].Reason != want {
					t.Errorf("raw off: %v: %d violations retained, last %+v, want %d and %q",
						disableRaw, len(vs), vs[len(vs)-1], maxDenyViolations+1, want)
				}
			}
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
