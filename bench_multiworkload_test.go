// Multi-workload enforcement benchmarks: one proxy, N concurrent
// workload policies, parallel clients (b.RunParallel). In-package
// micro-benchmarks for a quick look; the numbers a PR quotes come from
// bench/ (bash bench/run.sh).
//
// Run:  go test -bench=MultiWorkload -benchmem
package kubefence_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/experiments"
	"repro/internal/proxy"
	"repro/internal/registry"
)

type benchRequest struct {
	path string
	body []byte
}

// benchFleet registers n workload policies, cycling the builtin charts
// under suffixed names past the first five, each selected by a
// namespace of its own name. chartOf[i] is the chart names[i] was cut
// from.
func benchFleet(b *testing.B, cacheSize, n int) (reg *registry.Registry, names, chartOf []string) {
	b.Helper()
	pols, err := experiments.Policies()
	if err != nil {
		b.Fatal(err)
	}
	base := charts.Names()
	reg = registry.New(registry.Config{CacheSize: cacheSize})
	for i := 0; i < n; i++ {
		chartName := base[i%len(base)]
		name := chartName
		if i >= len(base) {
			name = fmt.Sprintf("%s-%d", chartName, i/len(base)+1)
		}
		if _, err := reg.Register(name, registry.Selector{Namespace: name}, pols[chartName]); err != nil {
			b.Fatal(err)
		}
		names, chartOf = append(names, name), append(chartOf, chartName)
	}
	return reg, names, chartOf
}

// benchMultiWorkload builds a registry of n workload policies, a proxy
// over a null upstream, and each workload's legitimate request corpus
// rendered into its own namespace.
func benchMultiWorkload(b *testing.B, n, cacheSize int) (*proxy.Proxy, []benchRequest) {
	b.Helper()
	reg, names, chartOf := benchFleet(b, cacheSize, n)
	var reqs []benchRequest
	for i, name := range names {
		files, err := charts.MustLoad(chartOf[i]).Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: name})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range chart.Objects(files) {
			body, err := json.Marshal(o)
			if err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, benchRequest{
				path: "/api/v1/namespaces/" + name + "/resources",
				body: body,
			})
		}
	}
	p, err := proxy.New(proxy.Config{
		Upstream:  "http://upstream.invalid",
		Transport: experiments.NullTransport{},
		Registry:  reg,
		ProxyUser: "kubefence-proxy",
	})
	if err != nil {
		b.Fatal(err)
	}
	return p, reqs
}

func benchEnforce(b *testing.B, workloads, cacheSize int) {
	p, reqs := benchMultiWorkload(b, workloads, cacheSize)
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := reqs[next.Add(1)%uint64(len(reqs))]
			req := httptest.NewRequest(http.MethodPost, r.path, strings.NewReader(string(r.body)))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			p.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	})
	b.StopTimer()
	var denied uint64
	for _, m := range p.Registry().Metrics() {
		denied += m.Denied
	}
	if denied != 0 {
		b.Fatalf("legitimate corpus denied %d times", denied)
	}
}

func BenchmarkMultiWorkloadEnforce1(b *testing.B)  { benchEnforce(b, 1, 0) }
func BenchmarkMultiWorkloadEnforce5(b *testing.B)  { benchEnforce(b, 5, 0) }
func BenchmarkMultiWorkloadEnforce10(b *testing.B) { benchEnforce(b, 10, 0) }

func BenchmarkMultiWorkloadEnforceCached1(b *testing.B)  { benchEnforce(b, 1, 4096) }
func BenchmarkMultiWorkloadEnforceCached5(b *testing.B)  { benchEnforce(b, 5, 4096) }
func BenchmarkMultiWorkloadEnforceCached10(b *testing.B) { benchEnforce(b, 10, 4096) }

// BenchmarkRegistryResolve measures the pure resolution hot path under
// parallel load — the per-request overhead the registry adds over the
// seed's single atomic pointer.
func BenchmarkRegistryResolve(b *testing.B) {
	for _, n := range []int{1, 5, 25} {
		b.Run(fmt.Sprintf("workloads=%d", n), func(b *testing.B) {
			reg, namespaces, _ := benchFleet(b, 0, n)
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					ns := namespaces[next.Add(1)%uint64(len(namespaces))]
					if _, ok := reg.Resolve(ns, "Deployment"); !ok {
						b.Fatal("resolution failed")
					}
				}
			})
		})
	}
}
