package proxy

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/object"
	"repro/internal/registry"
)

// TestBoundedLogDefaultCapacity: the log a proxy builds for itself keeps
// exactly maxRecords records, the newest.
func TestBoundedLogDefaultCapacity(t *testing.T) {
	p, err := New(Config{Upstream: "http://upstream.invalid", Registry: registry.New(registry.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxRecords+10; i++ {
		p.violations.Append(ViolationRecord{Name: fmt.Sprint(i)})
	}
	got := p.Violations()
	if len(got) != maxRecords {
		t.Fatalf("default-capacity log holds %d, want %d", len(got), maxRecords)
	}
	if got[0].Name != "10" {
		t.Errorf("oldest kept record = %s, want 10", got[0].Name)
	}
}

// TestRetainedRecordsStayBoundedAcrossWorkloads: the proxy's log is the
// one place a denial record is kept, so what a flood of denials retains
// is one log's worth, whatever the number of workloads it is spread
// over. After the log has filled, four times as many denials again grow
// the heap by less than a tenth of what the fill retained. Not parallel:
// it reads the heap.
func TestRetainedRecordsStayBoundedAcrossWorkloads(t *testing.T) {
	const workloads = 64
	reg := registry.New(registry.Config{})
	for i := 0; i < workloads; i++ {
		ns := fmt.Sprintf("ns%d", i)
		v, err := buildPolicy(object.Object{
			"apiVersion": "v1",
			"kind":       "ConfigMap",
			"metadata":   map[string]any{"name": "cm", "namespace": ns},
			"data":       map[string]any{"key": "value"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Register(ns, registry.Selector{Namespace: ns}, v); err != nil {
			t.Fatal(err)
		}
	}
	p, err := New(Config{Upstream: "http://upstream.invalid", Transport: echoTransport{}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	flood := func(from, to int) {
		for i := from; i < to; i++ {
			ns := fmt.Sprintf("ns%d", i%workloads)
			body := fmt.Sprintf(`{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"cm-%d","namespace":%q},"data":{"key":"value","x%d":"y"}}`, i, ns, i)
			req := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/"+ns+"/configmaps", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			p.ServeHTTP(rec, req)
			if rec.Code != http.StatusForbidden {
				t.Fatalf("denial %d: status %d", i, rec.Code)
			}
		}
	}
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	flood(0, maxRecords)
	filled := heap()
	flood(maxRecords, 5*maxRecords)
	flooded := heap()
	runtime.KeepAlive(p)
	fill, more := filled-before, flooded-filled
	t.Logf("%d denials over %d workloads retain %d B; %d more grow that by %d B", maxRecords, workloads, fill, 4*maxRecords, more)
	if more >= fill/10 {
		t.Errorf("4×%d more denials grew retained bytes by %d B, want < 10 %% of the %d B the first %d retained",
			maxRecords, more, fill, maxRecords)
	}
	if n := len(p.Violations()); n != maxRecords {
		t.Errorf("proxy log holds %d records, want %d", n, maxRecords)
	}
}
