package proxy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/object"
)

// slowEchoTransport echoes the request body back like echoTransport but
// reads it in small chunks with scheduler yields between them, widening
// the window in which a prematurely recycled pooled buffer (returned to
// bodyPool while the upstream read is still in flight) would be observed
// as a mangled echo — and as a data race under -race.
type slowEchoTransport struct{}

func (slowEchoTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	var buf bytes.Buffer
	if r.Body != nil {
		chunk := make([]byte, 64)
		for {
			n, err := r.Body.Read(chunk)
			buf.Write(chunk[:n])
			runtime.Gosched()
			if err != nil {
				break
			}
		}
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{},
		Body:       io.NopCloser(&buf),
	}, nil
}

// brokenReader fails mid-stream after yielding a JSON prefix, modeling a
// client disconnect while the proxy buffers the body.
type brokenReader struct{ sent bool }

func (b *brokenReader) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, `{"kind":"ConfigMap","met`), nil
	}
	return 0, errors.New("connection reset mid-body")
}

// TestBodyBufferLifecycleUnderRace hammers every early-return path of
// the inspection pipeline concurrently with allowed traffic whose echo
// is byte-compared against the original body. A pooled buffer released
// on the wrong side of an early return (oversized 413, mid-stream
// disconnect, unsupported type, policy denial, raw-path denial) gets
// recycled into a concurrent request and shows up here as either a
// corrupted echo or a -race report. The async sink runs with a tiny
// ring and a slow consumer so overflow drops exercise the sink-flush
// failure path at the same time.
func TestBodyBufferLifecycleUnderRace(t *testing.T) {
	p := newProxy(t, Config{
		Upstream:   "http://upstream.invalid",
		Transport:  slowEchoTransport{},
		SinkBuffer: 2,
		OnViolation: func(ViolationRecord) {
			time.Sleep(50 * time.Microsecond) // a slow consumer, not a wait: keeps the 2-slot ring overflowing
		},
	}, testPolicy(t), 0)

	goodJSON, err := json.Marshal(goodDeployment())
	if err != nil {
		t.Fatal(err)
	}
	badJSON, err := json.Marshal(badDeployment())
	if err != nil {
		t.Fatal(err)
	}
	goodObj := goodDeployment()
	// Keep the YAML body on the raw fast path: the encoder renders
	// float64(2) as "2.0", which the matcher refuses to vouch for
	// against an int-typed cell.
	if err := object.Set(goodObj, "spec.replicas", int64(2)); err != nil {
		t.Fatal(err)
	}
	goodYAML, err := goodObj.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	oversized := []byte(`{"kind":"ConfigMap","data":{"blob":"` +
		strings.Repeat("A", maxInspectBytes) + `"}}`)

	const target = "/apis/apps/v1/namespaces/default/deployments"
	send := func(contentType string, body io.Reader) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, target, body)
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, req)
		return rec
	}

	const goroutines = 8
	const perG = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 6 {
				case 0: // allowed JSON through the raw fast path; echo must be intact
					rec := send("application/json", bytes.NewReader(goodJSON))
					if rec.Code != http.StatusOK {
						errs <- fmt.Errorf("allowed JSON denied: %d", rec.Code)
					} else if !bytes.Equal(rec.Body.Bytes(), goodJSON) {
						errs <- fmt.Errorf("JSON echo corrupted: pooled buffer recycled while upstream read in flight")
					}
				case 1: // allowed YAML through the raw fast path; echo must be intact
					rec := send("application/yaml", bytes.NewReader(goodYAML))
					if rec.Code != http.StatusOK {
						errs <- fmt.Errorf("allowed YAML denied: %d", rec.Code)
					} else if !bytes.Equal(rec.Body.Bytes(), goodYAML) {
						errs <- fmt.Errorf("YAML echo corrupted: pooled buffer recycled while upstream read in flight")
					}
				case 2: // policy denial (403), buffer released on the deny path
					if rec := send("application/json", bytes.NewReader(badJSON)); rec.Code != http.StatusForbidden {
						errs <- fmt.Errorf("violating body not denied: %d", rec.Code)
					}
				case 3: // oversized body (413)
					if rec := send("application/json", bytes.NewReader(oversized)); rec.Code != http.StatusRequestEntityTooLarge {
						errs <- fmt.Errorf("oversized body: %d, want 413", rec.Code)
					}
				case 4: // mid-stream disconnect (400)
					if rec := send("application/json", &brokenReader{}); rec.Code != http.StatusBadRequest {
						errs <- fmt.Errorf("broken body: %d, want 400", rec.Code)
					}
				case 5: // unsupported media type (415)
					if rec := send("application/xml", bytes.NewReader(goodJSON)); rec.Code != http.StatusUnsupportedMediaType {
						errs <- fmt.Errorf("xml body: %d, want 415", rec.Code)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if !p.FlushSinks(5 * time.Second) {
		t.Error("async sink did not drain after the hammer")
	}
	p.CloseSinks()
	stats := p.SinkStats()
	if stats.Delivered == 0 {
		t.Error("async sink delivered nothing; violation records lost entirely")
	}
	// Drops are expected (tiny ring, slow consumer) — the invariant is
	// accounting, not zero loss: every enqueued event is either
	// delivered or counted dropped.
	if got := stats.Delivered + stats.Dropped; got != stats.Enqueued {
		t.Errorf("sink accounting leak: delivered %d + dropped %d != enqueued %d",
			stats.Delivered, stats.Dropped, stats.Enqueued)
	}
}
