package plane

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// nullTransport discards the forwarded request with the least a
// RoundTripper may return, so a loop prices the front door and the
// replica's admission and nothing behind them.
type nullTransport struct{}

func (nullTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody}, nil
}

// nullWriter is a ResponseWriter that keeps nothing.
type nullWriter struct{ header http.Header }

func (w *nullWriter) Header() http.Header         { return w.header }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}

// resettableBody is a request body a loop rewinds instead of
// reallocating.
type resettableBody struct{ bytes.Reader }

func (*resettableBody) Close() error { return nil }

// reapplyLoop builds a plane over a synthetic fleet, each workload
// registered the way the facade does (its namespace plus the
// cluster-scoped kinds its policy allows) with a 1024-entry decision
// cache, and returns a closure that serves request n of an endless
// round-robin over the fleet's benign JSON manifests through the front
// door. One pass has already warmed every replica's decision cache.
func reapplyLoop(tb testing.TB) (pl *Plane, serve func(n int), bodies int) {
	tb.Helper()
	ws, err := synth.Generate(synth.Options{Seed: 1, Count: 16})
	if err != nil {
		tb.Fatal(err)
	}
	pl, err = New(Config{
		Replicas:  2,
		Upstream:  "http://upstream.invalid",
		Transport: nullTransport{},
		CacheSize: 1024,
		Telemetry: &telemetry.Config{SampleEvery: 128},
		Placement: PlacementHash,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pl.Close() })
	var reqs []*http.Request
	var corpus [][]byte
	for _, w := range ws {
		sel := registry.Selector{Namespace: w.Name,
			ClusterKinds: registry.ClusterScopedKinds(w.Policy.AllowedKinds())}
		if err := pl.Register(w.Name, sel, w.Policy); err != nil {
			tb.Fatal(err)
		}
		for _, o := range w.Objects {
			body, err := json.Marshal(o)
			if err != nil {
				tb.Fatal(err)
			}
			path := "/api/v1/namespaces/" + w.Name + "/" + strings.ToLower(o.Kind()) + "s"
			r, err := http.NewRequest(http.MethodPost, "http://kubefence.invalid"+path, nil)
			if err != nil {
				tb.Fatal(err)
			}
			r.Header.Set("Content-Type", "application/json")
			r.Header.Set("X-Remote-User", "operator")
			r.ContentLength = int64(len(body))
			reqs, corpus = append(reqs, r), append(corpus, body)
		}
	}
	rbs := make([]resettableBody, len(reqs))
	w := &nullWriter{header: http.Header{}}
	serve = func(n int) {
		i := n % len(reqs)
		rbs[i].Reset(corpus[i])
		reqs[i].Body = &rbs[i]
		clear(w.header)
		pl.ServeHTTP(w, reqs[i])
	}
	for n := range reqs {
		serve(n)
	}
	return pl, serve, len(reqs)
}

// TestPlaneServeAllocationCeiling: a re-applied body through the front
// door allocates what it would through a replica's proxy alone — the
// proxy's reapply ceiling of 2 (the upstream body wrapper and the
// transport's Response) — so routing it (scan, shard key, ring lookup)
// allocates nothing. Every request must be raw-allowed from the cache.
func TestPlaneServeAllocationCeiling(t *testing.T) {
	const ceiling = 2
	pl, serve, n := reapplyLoop(t)
	before := pl.Metrics().Proxy
	i := n
	allocs := testing.AllocsPerRun(4*n, func() {
		serve(i)
		i++
	})
	after := pl.Metrics().Proxy
	if served, raw := after.Requests-before.Requests, after.RawAllowed-before.RawAllowed; served == 0 || raw != served {
		t.Fatalf("%d of %d requests raw-allowed: the corpus left its fast path", raw, served)
	}
	if allocs > ceiling+raceAllocSlack {
		t.Errorf("%.2f allocs/request through the plane, ceiling %d", allocs, ceiling+raceAllocSlack)
	}
}

// BenchmarkPlaneServe is reapply traffic through Plane.ServeHTTP: read,
// scan, route, then the owning replica's cache hit and forward.
func BenchmarkPlaneServe(b *testing.B) {
	_, serve, n := reapplyLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(n + i)
	}
}
