package proxy

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
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
// so overwriting its digits yields a body with a new tag and the same
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

// fleetBody is one corpus request; stamp is the offset of benchStamp's
// digits in body, found once, so the stamp survives being overwritten.
type fleetBody struct {
	path  string
	body  []byte
	stamp int
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
	stamped := func(path string, body []byte) fleetBody {
		stamp := bytes.Index(body, []byte(benchStamp))
		if stamp < 0 {
			tb.Fatalf("a %s body carries no resourceVersion stamp", path)
		}
		return fleetBody{path, body, stamp}
	}
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
			f.json = append(f.json, stamped(path, jb))
			f.yaml = append(f.yaml, stamped(path, yb))
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
				f.attacks = append(f.attacks, stamped(ev.Path, ev.Body))
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
	}
	w := &nullWriter{header: http.Header{}}
	serve := func(n int) {
		i := n % len(reqs)
		body, stamp := corpus[i].body, corpus[i].stamp
		if unique {
			digits := body[stamp : stamp+len(benchStamp)]
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

// benchServeParallel is benchServe from GOMAXPROCS goroutines, each
// with a copy of the corpus of its own: the serial benchmarks keep every
// write on one core, so only this form prices the cache lines that two
// cores serving at once both write. With unique, each goroutine stamps
// numbers no other one stamps.
func benchServeParallel(b *testing.B, unique, deny bool) {
	f := newSynthFleet(b, 60)
	shared := f.json
	if deny {
		shared = f.attacks
	}
	procs := runtime.GOMAXPROCS(0)
	serves := make(chan func(n int), procs)
	for g := 0; g < procs; g++ {
		corpus := make([]fleetBody, len(shared))
		for i, fb := range shared {
			corpus[i] = fleetBody{fb.path, bytes.Clone(fb.body), fb.stamp}
		}
		serves <- serveLoop(b, f, corpus, "application/json", unique)
	}
	before := f.proxy.Metrics()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		serve := <-serves
		n := int(next.Add(1)) * 1e12
		for pb.Next() {
			serve(n)
			n++
		}
	})
	b.StopTimer()
	after := f.proxy.Metrics()
	served, denied := after.Requests-before.Requests, after.Denied-before.Denied
	if deny {
		if raw := after.RawDenied - before.RawDenied; served != uint64(b.N) || denied != served || raw == 0 {
			b.Fatalf("served %d of %d, %d denied, %d on the raw path", served, b.N, denied, raw)
		}
		return
	}
	if raw := after.RawAllowed - before.RawAllowed; served != uint64(b.N) || denied != 0 || raw != served {
		b.Fatalf("served %d of %d, %d denied, %d on the raw path", served, b.N, denied, raw)
	}
}

// BenchmarkServeReapply is the steady state: every body has been seen,
// so a decision is read + tag + memo probe + resolve + cache probe +
// forward.
func BenchmarkServeReapply(b *testing.B) { benchServe(b, false, false) }

// BenchmarkServeUnique is the cold path: every body is new, so the memo
// and the decision cache miss and the scanner and matcher do the work.
func BenchmarkServeUnique(b *testing.B) { benchServe(b, true, false) }

// BenchmarkServeReapplyParallel is BenchmarkServeReapply on every core
// at once: the decision-cache hit path with no writes shared between
// cores left to serialize on.
func BenchmarkServeReapplyParallel(b *testing.B) { benchServeParallel(b, false, false) }

// BenchmarkServeUniqueParallel is BenchmarkServeUnique on every core at
// once: the shards' puts and evictions under their mutexes.
func BenchmarkServeUniqueParallel(b *testing.B) { benchServeParallel(b, true, false) }

// BenchmarkServeDeny is the cold path of an attack: every body is a
// never-seen mutation, judged by the walk (or, for a construct it cannot
// judge, decoded), then recorded and answered 403.
func BenchmarkServeDeny(b *testing.B) { benchServe(b, true, true) }

// BenchmarkServeDenyParallel is BenchmarkServeDeny on every core at
// once: each denial's record goes into the proxy's one audit ring, whose
// cursor every core bumps.
func BenchmarkServeDenyParallel(b *testing.B) { benchServeParallel(b, true, true) }

// TestServeAllocationCeiling pins what a request may allocate through
// the whole handler, on the traffic the benchmarks above time: a
// re-applied body and a never-seen one, on both wires, and a never-seen
// attack (unique-deny-json: its list, record and 403 allocate; the walk
// that judges most attacks does not). The ceilings are AllocsPerRun's
// floored corpus means. Every request of an allowed row must be allowed
// on the raw path: the walk vouches for every benign body of the fleet,
// escaped strings and plain scalars such as 0.0.0.0 included, on both
// wires, so the four allowed rows cost the same: the upstream body
// wrapper and the null transport's Response, the upstream request
// itself being a recycled frame (forward.go). A change that raises an
// allowed row has started allocating on the allowed fast path, or
// sending benign bodies to the decoder; one that raises the deny row, on
// the denial path. They were
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
		{"reapply-json", f.json, "application/json", false, false, 2},
		{"unique-json", f.json, "application/json", true, false, 2},
		{"reapply-yaml", f.yaml, "application/yaml", false, false, 2},
		{"unique-yaml", f.yaml, "application/yaml", true, false, 2},
		{"unique-deny-json", f.attacks, "application/json", true, true, 20},
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
			served := after.Requests - before.Requests
			denied, raw := after.Denied-before.Denied, after.RawAllowed-before.RawAllowed
			if tc.deny {
				denied, raw = served-denied, after.RawDenied-before.RawDenied
			}
			if denied != 0 || raw == 0 || !tc.deny && raw != served {
				t.Fatalf("%d of %d with the wrong verdict, %d on the raw path: the corpus left its fast path", denied, served, raw)
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

// TestShadowModeDecidesOnTheWire: a shadow-mode workload's clean,
// never-seen JSON body is judged by the walk that judges it in enforce
// mode, so it is an (allowed, raw) decision and allocates what it does
// in enforce mode; only the verdict's meaning differs with the mode.
func TestShadowModeDecidesOnTheWire(t *testing.T) {
	f := newSynthFleet(t, 8)
	reg := f.proxy.Registry()
	shadowed := func() (n uint64) {
		for _, w := range reg.Workloads() {
			e, _ := reg.Entry(w)
			n += e.ShadowStats().Requests
		}
		return n
	}
	n := len(f.json)
	allocs := map[registry.Mode]float64{}
	for _, m := range []registry.Mode{registry.ModeEnforce, registry.ModeShadow} {
		for _, w := range reg.Workloads() {
			if err := reg.SetMode(w, m); err != nil {
				t.Fatal(err)
			}
		}
		// One loop per mode, over the corpus the last one stamped. A
		// pass in the new mode first: each workload's first shadow
		// verdict makes its window.
		serve := serveLoop(t, f, f.json, "application/json", true)
		for end := n + len(f.json); n < end; n++ {
			serve(n)
		}
		before, shadowBefore := f.proxy.Metrics(), shadowed()
		allocs[m] = testing.AllocsPerRun(4*len(f.json), func() {
			serve(n)
			n++
		})
		after := f.proxy.Metrics()
		served := after.Requests - before.Requests
		if raw := after.RawAllowed - before.RawAllowed; raw != served || after.Shadowed != before.Shadowed {
			t.Fatalf("%s: %d of %d allowed on the raw path, %d shadowed", m, raw, served, after.Shadowed-before.Shadowed)
		}
		want := uint64(0)
		if m == registry.ModeShadow {
			want = served
		}
		if got := shadowed() - shadowBefore; got != want {
			t.Fatalf("%s: %d shadow verdicts, want %d", m, got, want)
		}
	}
	if d := allocs[registry.ModeShadow] - allocs[registry.ModeEnforce]; d > raceAllocSlack || -d > raceAllocSlack {
		t.Errorf("shadow mode %.0f allocs/request, enforce mode %.0f", allocs[registry.ModeShadow], allocs[registry.ModeEnforce])
	}
}
