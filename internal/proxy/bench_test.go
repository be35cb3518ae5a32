package proxy

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mutate"
	"repro/internal/object"
	"repro/internal/registry"
	"repro/internal/replay"
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
// by its own policy, and its mutation matrix as JSON attack bodies.
type synthFleet struct {
	proxy   *Proxy
	hub     *telemetry.Hub
	json    []fleetBody
	yaml    []fleetBody
	attacks []fleetBody
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
		// One variant per (attack, mutation class) pair, as bench/'s
		// attack_mix sends them; the JSON-wire ones.
		scs, err := mutate.ForCatalog(w.Objects, mutate.Options{MaxPerAttackClass: 1})
		if err != nil {
			tb.Fatal(err)
		}
		for _, sc := range scs {
			sc.Object = sc.Object.DeepCopy()
			if object.Set(sc.Object, "metadata.resourceVersion", benchStamp) != nil {
				continue
			}
			ev, err := replay.AttackEvent(w.Name, sc)
			if err != nil {
				tb.Fatal(err)
			}
			if ev.ContentType == "application/json" {
				f.attacks = append(f.attacks, fleetBody{ev.Path, ev.Body})
			}
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

// benchServe drives ServeHTTP over one of the fleet's JSON corpora
// round-robin: the benign bodies, every one raw-allowed, or with deny
// the attacks, every one denied and some on the raw path.
func benchServe(b *testing.B, unique, deny bool) {
	f := newSynthFleet(b, 60)
	corpus := f.json
	if deny {
		corpus = f.attacks
	}
	serve := serveLoop(b, f, corpus, "application/json", unique)
	before := f.proxy.Metrics()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		serve(len(corpus) + n)
	}
	b.StopTimer()
	after := f.proxy.Metrics()
	served, denied := after.Requests-before.Requests, after.Denied-before.Denied
	raw := after.RawAllowed - before.RawAllowed
	if deny {
		denied, raw = served-denied, after.RawDenied-before.RawDenied
	}
	if served != uint64(b.N) || denied != 0 || raw == 0 {
		b.Fatalf("served %d of %d, %d with the wrong verdict, %d on the raw path", served, b.N, denied, raw)
	}
}

// BenchmarkServeReapply is the steady state: every body has been seen,
// so a decision is read + hash + memo probe + resolve + cache probe +
// forward.
func BenchmarkServeReapply(b *testing.B) { benchServe(b, false, false) }

// BenchmarkServeUnique is the cold path: every body is new, so the memo
// and the decision cache miss and the scanner and matcher do the work.
func BenchmarkServeUnique(b *testing.B) { benchServe(b, true, false) }

// BenchmarkServeDeny is the cold path of an attack: every body is a
// never-seen mutation, judged by the walk (or, for a construct it cannot
// judge, decoded), then recorded and answered 403.
func BenchmarkServeDeny(b *testing.B) { benchServe(b, true, true) }

// TestServeAllocationCeiling pins what a request may allocate through
// the whole handler, on the traffic the benchmarks above time: a
// re-applied body and a never-seen one, on both wires, and a never-seen
// attack (unique-deny-json: its list, record and 403 allocate; the walk
// that judges most attacks does not). The
// ceilings are AllocsPerRun's floored corpus means. unique-yaml carries
// the bodies the match leaves to the decoder; reapply-yaml is half of it
// because such a body — its only construct the scanner will not vouch
// for is a plain scalar such as 0.0.0.0 in spec — still scans, its
// prologue ending before that scalar, so a re-apply is answered by the
// decision cache instead of being decoded every time. A change that
// raises an allowed row has started allocating on the allowed fast path;
// one that raises the deny row, on the denial path. They were
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
		deny        bool
		ceiling     float64
	}{
		{"reapply-json", f.json, "application/json", false, false, 10},
		{"unique-json", f.json, "application/json", true, false, 11},
		{"reapply-yaml", f.yaml, "application/yaml", false, false, 15},
		{"unique-yaml", f.yaml, "application/yaml", true, false, 31},
		{"unique-deny-json", f.attacks, "application/json", true, true, 21},
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
			denied, raw := after.Denied-before.Denied, after.RawAllowed-before.RawAllowed
			if tc.deny {
				denied, raw = after.Requests-before.Requests-denied, after.RawDenied-before.RawDenied
			}
			if denied != 0 || raw == 0 {
				t.Fatalf("%d with the wrong verdict, %d on the raw path: the corpus left its fast path", denied, raw)
			}
			slack := float64(raceAllocSlack)
			if tc.deny {
				slack = raceDenyAllocSlack
			}
			if allocs > tc.ceiling+slack {
				t.Errorf("%.0f allocs/request, ceiling %.0f", allocs, tc.ceiling+slack)
			}
		})
	}
}
