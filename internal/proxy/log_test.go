package proxy

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/object"
	"repro/internal/registry"
)

func TestBoundedLogSequential(t *testing.T) {
	l := newLog(4)
	if len(l.Snapshot()) != 0 {
		t.Fatalf("fresh log not empty")
	}
	for i := 0; i < 3; i++ {
		l.Append(ViolationRecord{Name: fmt.Sprintf("r%d", i)})
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Len after 3 appends = %d", len(snap))
	}
	for i, rec := range snap {
		if want := fmt.Sprintf("r%d", i); rec.Name != want {
			t.Errorf("snapshot[%d] = %q, want %q (oldest first)", i, rec.Name, want)
		}
	}
	// Overflow: newest are kept, oldest dropped.
	for i := 3; i < 10; i++ {
		l.Append(ViolationRecord{Name: fmt.Sprintf("r%d", i)})
	}
	snap = l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Len after overflow = %d, want 4", len(snap))
	}
	for i, rec := range snap {
		if want := fmt.Sprintf("r%d", i+6); rec.Name != want {
			t.Errorf("snapshot[%d] = %q, want %q", i, rec.Name, want)
		}
	}
}

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

// TestBoundedLogUnwrittenReadsEmpty: a log nobody has appended to — the
// proxy's, until its first denial — answers reads empty without
// allocating, and holds the first record appended.
func TestBoundedLogUnwrittenReadsEmpty(t *testing.T) {
	l := newLog(maxRecords)
	allocs := testing.AllocsPerRun(100, func() {
		if snap := l.Snapshot(); len(snap) != 0 {
			t.Fatalf("Snapshot holds %d records on an unwritten log", len(snap))
		}
	})
	if allocs != 0 {
		t.Errorf("Snapshot allocates %.1f times on an unwritten log, want 0", allocs)
	}
	l.Append(ViolationRecord{Name: "first"})
	if snap := l.Snapshot(); len(snap) != 1 || snap[0].Name != "first" {
		t.Fatalf("after one Append: %+v", snap)
	}
}

// TestBoundedLogParallelAppend hammers one log from many goroutines —
// the proxy's denial-path contention pattern — and requires that after
// quiescing, the log holds exactly its capacity in valid records, all
// of them among the appended set, with per-goroutine ordering
// preserved within the retained window.
func TestBoundedLogParallelAppend(t *testing.T) {
	const (
		capacity   = 64
		goroutines = 16
		perG       = 500
	)
	l := newLog(capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.Append(ViolationRecord{User: fmt.Sprintf("g%d", g), Name: fmt.Sprintf("%d", i)})
			}
		}(g)
	}
	wg.Wait()
	snap := l.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("quiesced snapshot holds %d records, want %d", len(snap), capacity)
	}
	last := map[string]int{}
	for _, rec := range snap {
		if rec.User == "" {
			t.Fatalf("torn/zero record in snapshot: %+v", rec)
		}
		var i int
		if _, err := fmt.Sscanf(rec.Name, "%d", &i); err != nil || i < 0 || i >= perG {
			t.Fatalf("record %q/%q is not from the appended set", rec.User, rec.Name)
		}
		if prev, ok := last[rec.User]; ok && i <= prev {
			t.Errorf("per-goroutine order violated for %s: %d after %d", rec.User, i, prev)
		}
		last[rec.User] = i
	}
}

// TestBoundedLogFirstAppendsRace: goroutines released together make the
// first appends to fresh logs. Every appended record is retained, none
// twice, up to the capacity.
func TestBoundedLogFirstAppendsRace(t *testing.T) {
	const (
		capacity   = 64
		goroutines = 8
		perG       = 4
		rounds     = 200
	)
	for round := 0; round < rounds; round++ {
		l := newLog(capacity)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < perG; i++ {
					l.Append(ViolationRecord{User: fmt.Sprintf("g%d", g), Name: fmt.Sprint(i)})
				}
			}(g)
		}
		close(start)
		wg.Wait()
		snap := l.Snapshot()
		if len(snap) != goroutines*perG {
			t.Fatalf("round %d: %d records retained, want all %d appended",
				round, len(snap), goroutines*perG)
		}
		seen := map[string]bool{}
		for _, rec := range snap {
			id := rec.User + "/" + rec.Name
			if rec.User == "" || seen[id] {
				t.Fatalf("round %d: record %q is zero or retained twice", round, id)
			}
			seen[id] = true
		}
	}
}

func BenchmarkBoundedLogAppendParallel(b *testing.B) {
	l := newLog(maxRecords)
	rec := ViolationRecord{User: "u", Name: "n"}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Append(rec)
		}
	})
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
