package proxy

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/object"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// nullTransport discards the forwarded request, so the Serve benchmarks
// price the admission handler and nothing behind it.
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

// resettableBody is a request body a benchmark rewinds instead of
// reallocating.
type resettableBody struct{ bytes.Reader }

func (*resettableBody) Close() error { return nil }

// benchStamp is the fixed-width metadata.resourceVersion every corpus
// body carries: server-owned metadata the engines scrub before matching,
// so overwriting its digits yields a body with a new hash and the same
// verdict.
const benchStamp = "7340000000000137"

// synthFleet is a synthetic fleet behind one registry-backed proxy: each
// workload's benign manifests as JSON and YAML bodies, every one allowed
// by its own policy.
type synthFleet struct {
	proxy *Proxy
	hub   *telemetry.Hub
	json  []fleetBody
	yaml  []fleetBody
}

type fleetBody struct {
	path string
	body []byte
}

// newSynthFleet registers count synthetic workloads the way the facade
// does (namespace selector plus the cluster-scoped kinds the policy
// allows) with a 1024-entry decision-cache shard each.
func newSynthFleet(tb testing.TB, count int) *synthFleet {
	tb.Helper()
	ws, err := synth.Generate(synth.Options{Seed: 1, Count: count})
	if err != nil {
		tb.Fatal(err)
	}
	reg := registry.New(registry.Config{CacheSize: 1024})
	f := &synthFleet{hub: telemetry.New(telemetry.Config{SampleEvery: 128})}
	for _, w := range ws {
		sel := registry.Selector{Namespace: w.Name,
			ClusterKinds: registry.ClusterScopedKinds(w.Policy.AllowedKinds())}
		if _, err := reg.Register(w.Name, sel, w.Policy); err != nil {
			tb.Fatal(err)
		}
		for _, o := range w.Objects {
			o = o.DeepCopy()
			if err := object.Set(o, "metadata.resourceVersion", benchStamp); err != nil {
				tb.Fatal(err)
			}
			path := "/api/v1/namespaces/" + w.Name + "/" + strings.ToLower(o.Kind()) + "s"
			jb, err := json.Marshal(o)
			if err != nil {
				tb.Fatal(err)
			}
			yb, err := o.MarshalYAML()
			if err != nil {
				tb.Fatal(err)
			}
			f.json = append(f.json, fleetBody{path, jb})
			f.yaml = append(f.yaml, fleetBody{path, yb})
		}
	}
	f.proxy, err = New(Config{
		Upstream:  "http://upstream.invalid",
		Transport: nullTransport{},
		Registry:  reg,
		ProxyUser: "kubefence-proxy",
		Telemetry: f.hub,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// benchServe drives ServeHTTP over the fleet's JSON bodies round-robin;
// unique stamps a fresh counter into every body so neither the scan memo
// nor the decision cache ever hits.
func benchServe(b *testing.B, unique bool) {
	f := newSynthFleet(b, 60)
	reqs := make([]*http.Request, len(f.json))
	bodies := make([]*resettableBody, len(f.json))
	stamps := make([]int, len(f.json))
	for i, fb := range f.json {
		bodies[i] = &resettableBody{}
		r, err := http.NewRequest(http.MethodPost, "http://kubefence.invalid"+fb.path, nil)
		if err != nil {
			b.Fatal(err)
		}
		r.Header.Set("Content-Type", "application/json")
		r.Header.Set("X-Remote-User", "operator")
		r.Body, r.ContentLength = bodies[i], int64(len(fb.body))
		reqs[i] = r
		if stamps[i] = bytes.Index(fb.body, []byte(benchStamp)); stamps[i] < 0 {
			b.Fatalf("body %d carries no resourceVersion stamp", i)
		}
	}
	w := &nullWriter{header: http.Header{}}
	serve := func(n int) {
		i := n % len(reqs)
		body := f.json[i].body
		if unique {
			digits := body[stamps[i] : stamps[i]+len(benchStamp)]
			copy(digits, "0000000000000000")
			strconv.AppendInt(digits[:0], int64(n), 10)
		}
		bodies[i].Reset(body)
		reqs[i].Body = bodies[i]
		clear(w.header)
		f.proxy.ServeHTTP(w, reqs[i])
	}
	// One pass fills the decision cache (and everything lazily built).
	for n := range reqs {
		serve(n)
	}
	before := f.proxy.Metrics()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		serve(len(reqs) + n)
	}
	b.StopTimer()
	after := f.proxy.Metrics()
	if got := after.Requests - before.Requests; got != uint64(b.N) || after.Denied != 0 ||
		after.RawAllowed-before.RawAllowed == 0 {
		b.Fatalf("served %d of %d, denied %d, raw-allowed %d", got, b.N, after.Denied,
			after.RawAllowed-before.RawAllowed)
	}
}

// BenchmarkServeReapply is the steady state: every body has been seen,
// so a decision is read + hash + memo probe + resolve + cache probe +
// forward.
func BenchmarkServeReapply(b *testing.B) { benchServe(b, false) }

// BenchmarkServeUnique is the cold path: every body is new, so the memo
// and the decision cache miss and the scanner and matcher do the work.
func BenchmarkServeUnique(b *testing.B) { benchServe(b, true) }
