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

// serveLoop returns a closure that serves request n of an endless
// round-robin over bodies; unique stamps a fresh counter into every body
// so neither the scan memo nor the decision cache ever hits. One pass has
// already filled the decision cache (and everything lazily built).
func serveLoop(tb testing.TB, f *synthFleet, corpus []fleetBody, contentType string, unique bool) func(n int) {
	tb.Helper()
	reqs := make([]*http.Request, len(corpus))
	bodies := make([]*resettableBody, len(corpus))
	stamps := make([]int, len(corpus))
	for i, fb := range corpus {
		bodies[i] = &resettableBody{}
		r, err := http.NewRequest(http.MethodPost, "http://kubefence.invalid"+fb.path, nil)
		if err != nil {
			tb.Fatal(err)
		}
		r.Header.Set("Content-Type", contentType)
		r.Header.Set("X-Remote-User", "operator")
		r.Body, r.ContentLength = bodies[i], int64(len(fb.body))
		reqs[i] = r
		if stamps[i] = bytes.Index(fb.body, []byte(benchStamp)); stamps[i] < 0 {
			tb.Fatalf("body %d carries no resourceVersion stamp", i)
		}
	}
	w := &nullWriter{header: http.Header{}}
	serve := func(n int) {
		i := n % len(reqs)
		body := corpus[i].body
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
	for n := range reqs {
		serve(n)
	}
	return serve
}

// benchServe drives ServeHTTP over the fleet's JSON bodies round-robin.
func benchServe(b *testing.B, unique bool) {
	f := newSynthFleet(b, 60)
	serve := serveLoop(b, f, f.json, "application/json", unique)
	before := f.proxy.Metrics()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		serve(len(f.json) + n)
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

// TestServeAllocationCeiling pins what an allowed request may allocate
// through the whole handler, on the traffic the two benchmarks above
// time: a re-applied body and a never-seen one, on both wires. The
// ceilings are AllocsPerRun's floored corpus means. unique-yaml carries
// the bodies the match leaves to the decoder; reapply-yaml is half of it
// because such a body — its only construct the scanner will not vouch
// for is a plain scalar such as 0.0.0.0 in spec — still scans, its
// prologue ending before that scalar, so a re-apply is answered by the
// decision cache instead of being decoded every time. A change that
// raises one has started allocating on the allowed fast path. They were
// measured on go1.24 only and are unverified on the go1.22 / go1.23
// toolchains CI also runs: if a row is red there with the product
// untouched, re-pin it to the maximum over the matrix.
func TestServeAllocationCeiling(t *testing.T) {
	f := newSynthFleet(t, 60)
	for _, tc := range []struct {
		name        string
		corpus      []fleetBody
		contentType string
		unique      bool
		ceiling     float64
	}{
		{"reapply-json", f.json, "application/json", false, 10},
		{"unique-json", f.json, "application/json", true, 11},
		{"reapply-yaml", f.yaml, "application/yaml", false, 15},
		{"unique-yaml", f.yaml, "application/yaml", true, 31},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serve := serveLoop(t, f, tc.corpus, tc.contentType, tc.unique)
			n := len(tc.corpus)
			before := f.proxy.Metrics()
			allocs := testing.AllocsPerRun(4*len(tc.corpus), func() {
				serve(n)
				n++
			})
			after := f.proxy.Metrics()
			if after.Denied != 0 || after.RawAllowed == before.RawAllowed {
				t.Fatalf("denied %d, raw-allowed %d: the corpus left the allowed fast path",
					after.Denied, after.RawAllowed-before.RawAllowed)
			}
			if allocs > tc.ceiling+raceAllocSlack {
				t.Errorf("%.0f allocs/request, ceiling %.0f", allocs, tc.ceiling+raceAllocSlack)
			}
		})
	}
}
