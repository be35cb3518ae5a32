package proxy

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/telemetry"
)

// memoRequest builds an inspected request whose scans go through m, a
// memo of the test's own: what other tests left in the process-wide one
// cannot be seen from here.
func memoRequest(m *scanMemo, yaml bool, body []byte) Request {
	r := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/ns/configmaps", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	if yaml {
		r.Header.Set("Content-Type", "application/yaml")
	}
	q := ReadRequest(r)
	q.memo = m
	return q
}

func freshScan(yaml bool, body []byte) (compile.RawMeta, bool) {
	if yaml {
		return compile.ScanRawYAMLMeta(body)
	}
	return compile.ScanRawMeta(body)
}

// checkScan scans q and holds the result to a fresh scan of the same
// bytes, field by field, and to q's own buffer. It reports with Error,
// so any goroutine may call it.
func checkScan(t testing.TB, q *Request, yaml bool) {
	t.Helper()
	want, wantOK := freshScan(yaml, append([]byte(nil), q.body...))
	if got := q.scan(); got != wantOK {
		t.Errorf("scan (memo outcome %d) = %v, fresh scan = %v; body %q", q.memoed, got, wantOK, q.body)
	}
	for _, f := range []struct {
		name      string
		got, want []byte
	}{
		{"kind", q.meta.Kind, want.Kind},
		{"apiVersion", q.meta.APIVersion, want.APIVersion},
		{"namespace", q.meta.Namespace, want.Namespace},
		{"name", q.meta.Name, want.Name},
	} {
		// Equal bytes, and nil where — and only where — the scanner
		// said nil.
		if !bytes.Equal(f.got, f.want) || (f.got == nil) != (f.want == nil) {
			t.Errorf("%s (memo outcome %d) = %q (nil %v), fresh scan = %q (nil %v); body %q",
				f.name, q.memoed, f.got, f.got == nil, f.want, f.want == nil, q.body)
		}
		if _, ok := fieldSpan(q.body, f.got); !ok {
			t.Errorf("%s (memo outcome %d) is not a slice of the request's own body", f.name, q.memoed)
		}
	}
}

var memoSeeds = []struct {
	yaml bool
	body string
}{
	{false, `{"kind":"ConfigMap","apiVersion":"v1","metadata":{"name":"cm","namespace":"ns"},"data":{"k":"v"}}`},
	{false, `{"kind":"ClusterRole","apiVersion":"rbac.authorization.k8s.io/v1","metadata":{"name":"cr"}}`},
	// Empty is not nil: present-and-empty strings, then absent and
	// non-string fields.
	{false, `{"kind":"","apiVersion":"","metadata":{"name":"","namespace":""}}`},
	{false, `{"kind":7,"metadata":{"name":null,"namespace":["x"]}}`},
	{false, `{"metadata":"none"}`},
	{false, `{}`},
	// Failed scans, some with fields already extracted when they fail.
	{false, `{"kind":"ConfigMap","metadata":{"name":"cm"},"data":`},
	{false, `{"kind":"ConfigMap","kind":"Secret"}`},
	{false, `[1,2,3]`},
	// A scan that stops at a complete prologue succeeds whatever follows.
	{false, `{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"cm"},"data":`},
	{true, "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cm\ndata:\n  k: v\n  k: w\n"},
	{true, "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cm\n  namespace: ns\ndata:\n  k: v\n"},
	{true, "kind: ''\nmetadata:\n  name: \"\"\n"},
	{true, "kind: 7\nmetadata:\n  namespace: [x]\n"},
	{true, "kind: ConfigMap\nmetadata:\n  name: cm\ndata:\n  k: \"a\\nb\"\n"},
	{true, "- a\n- b\n"},
	{true, "kind: ConfigMap\n  bad: indent\n"},
}

// FuzzScanMemoEquivalence: whatever the bytes and the wire, the scan a
// request gets — run, or served by the memo to a second request holding
// equal bytes in another buffer — is the fresh scan of those bytes.
func FuzzScanMemoEquivalence(f *testing.F) {
	for _, s := range memoSeeds {
		f.Add(s.yaml, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, yaml bool, body []byte) {
		if len(body) == 0 {
			return // not an inspected request: never scanned
		}
		m := newScanMemo(1)
		first := memoRequest(m, yaml, body)
		defer first.Release()
		checkScan(t, &first, yaml)
		if first.memoed != telemetry.ScanMemoMiss {
			t.Errorf("first scan: memo outcome %d, want a miss", first.memoed)
		}
		// first is still live, so second holds another pooled buffer.
		second := memoRequest(m, yaml, body)
		defer second.Release()
		checkScan(t, &second, yaml)
		if second.memoed != telemetry.ScanMemoHit {
			t.Errorf("second scan: memo outcome %d, want a hit", second.memoed)
		}
	})
}

// The same bytes are one body on the JSON wire and another on the YAML
// wire: the two scans never answer for each other.
func TestScanMemoKeysOnFormat(t *testing.T) {
	// A JSON object is a YAML flow mapping the YAML scanner does not
	// vouch for, so the two scans of these bytes differ.
	body := []byte(`{"kind":"ConfigMap","metadata":{"name":"cm","namespace":"ns"}}`)
	if _, ok := compile.ScanRawMeta(body); !ok {
		t.Fatal("JSON scan of the probe body failed")
	}
	if _, ok := compile.ScanRawYAMLMeta(body); ok {
		t.Fatal("YAML scan vouches for the probe body: pick one whose scans differ")
	}
	m := newScanMemo(1)
	for round, want := range []telemetry.ScanOutcome{telemetry.ScanMemoMiss, telemetry.ScanMemoHit} {
		for _, yaml := range []bool{false, true} {
			q := memoRequest(m, yaml, body)
			checkScan(t, &q, yaml)
			if q.memoed != want {
				t.Errorf("round %d, yaml %v: memo outcome %d, want %d", round, yaml, q.memoed, want)
			}
			q.Release()
		}
	}
}

// distinctBodies returns n JSON bodies that differ in name, so in tag.
func distinctBodies(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(
			`{"kind":"ConfigMap","apiVersion":"v1","metadata":{"name":"cm-%d","namespace":"ns-%d"}}`, i, i%3))
	}
	return out
}

// A one-set memo makes every body collide: more bodies than ways must
// evict, two bodies must share a way, and whatever the memo then holds,
// every scan still equals the fresh one.
func TestScanMemoEvictionAndCollision(t *testing.T) {
	m := newScanMemo(1)
	bodies := distinctBodies(3 * memoWays)
	var hits, misses, evictions int
	for round := 0; round < 4; round++ {
		for _, body := range bodies {
			q := memoRequest(m, false, body)
			checkScan(t, &q, false)
			switch q.memoed {
			case telemetry.ScanMemoHit:
				hits++
			case telemetry.ScanMemoEvict:
				evictions++
				fallthrough
			case telemetry.ScanMemoMiss:
				misses++
			}
			q.Release()
		}
	}
	if want := 4*len(bodies) - memoWays; evictions < len(bodies)-memoWays || evictions > want {
		t.Errorf("evictions = %d, want %d..%d", evictions, len(bodies)-memoWays, want)
	}
	if misses-evictions != memoWays {
		t.Errorf("%d misses filled an empty way, want %d (the set's ways)", misses-evictions, memoWays)
	}
	t.Logf("one set, %d bodies, 4 rounds: %d hits, %d misses, %d evictions", len(bodies), hits, misses, evictions)

	// A body the set kept is served from it, until another body takes
	// its way.
	kept := memoRequest(m, false, bodies[len(bodies)-1])
	defer kept.Release()
	checkScan(t, &kept, false)
	if kept.memoed != telemetry.ScanMemoHit {
		t.Errorf("the body put last: memo outcome %d, want a hit", kept.memoed)
	}
}

// Concurrent requests over one set: readers race writers for the same
// four slots. Every scan must equal the fresh one (run under -race).
func TestScanMemoConcurrentCollidingSets(t *testing.T) {
	m := newScanMemo(1)
	bodies := distinctBodies(2*memoWays + 1)
	var wg sync.WaitGroup
	var hits [8]int
	for g := range hits {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				q := memoRequest(m, false, bodies[(i*(g+1)+g)%len(bodies)])
				checkScan(t, &q, false)
				if q.memoed == telemetry.ScanMemoHit {
					hits[g]++
				}
				q.Release()
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, h := range hits {
		total += h
	}
	if total == 0 {
		t.Error("no scan was served by the memo: the test raced nothing")
	}
}

// A fleet's manifests re-applied round-robin — the steady state the
// memo exists for — are served by a memo of the production size.
func TestScanMemoHitShareOnSynthCorpus(t *testing.T) {
	f := newSynthFleet(t, 60)
	if len(f.json) < 600 {
		t.Fatalf("corpus has %d bodies, want at least 600", len(f.json))
	}
	for _, wire := range []struct {
		yaml   bool
		bodies []fleetBody
	}{{false, f.json}, {true, f.yaml}} {
		m := newScanMemo(memoSets)
		var hits, scans int
		for round := 0; round < 4; round++ {
			for _, fb := range wire.bodies {
				q := memoRequest(m, wire.yaml, fb.body)
				if round == 0 {
					checkScan(t, &q, wire.yaml)
				} else {
					q.scan()
					scans++
					if q.memoed == telemetry.ScanMemoHit {
						hits++
					}
				}
				q.Release()
			}
		}
		share := float64(hits) / float64(scans)
		t.Logf("yaml %v: %d bodies, %d of %d re-apply scans served by the memo (%.4f)",
			wire.yaml, len(wire.bodies), hits, scans, share)
		if share < 0.99 {
			t.Errorf("yaml %v: memo hit share %.4f on re-applied bodies, want at least 0.99", wire.yaml, share)
		}
	}
}
