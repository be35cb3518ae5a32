// Benchmarks regenerating every table and figure of the paper (one bench
// per experiment; see DESIGN.md §2), plus the ablation benches for the
// design choices called out in DESIGN.md §6.
//
// Run all:  go test -bench=. -benchmem
package kubefence_test

import (
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	kubefence "repro"
	"repro/internal/apiserver"
	"repro/internal/attacks"
	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/object"
	"repro/internal/operator"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/validator"
)

// ---------------------------------------------------------------------
// Figure 5 — motivation coverage study
// ---------------------------------------------------------------------

func BenchmarkFig5CoverageStudy(b *testing.B) {
	corpus := coverage.BuildCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := coverage.Analyze(corpus)
		if m.CoveringTests != 29 {
			b.Fatalf("covering tests = %d", m.CoveringTests)
		}
	}
}

func BenchmarkFig5CorpusConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := coverage.BuildCorpus()
		if len(c.Tests) != 6580 {
			b.Fatal("bad corpus")
		}
	}
}

// ---------------------------------------------------------------------
// Figure 9 and Table I — attack-surface quantification
// ---------------------------------------------------------------------

func benchPolicies(b *testing.B) map[string]*validator.Validator {
	b.Helper()
	pols, err := experiments.Policies()
	if err != nil {
		b.Fatal(err)
	}
	return pols
}

func BenchmarkFig9UsageMatrix(b *testing.B) {
	pols := benchPolicies(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := surface.ComputeUsage(pols)
		if len(m.Workloads) != 5 {
			b.Fatal("bad matrix")
		}
	}
}

func BenchmarkTableIAttackSurface(b *testing.B) {
	pols := benchPolicies(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := surface.ComputeReductions(pols)
		if len(rows) != 5 {
			b.Fatal("bad rows")
		}
	}
}

// ---------------------------------------------------------------------
// Table II — attack crafting
// ---------------------------------------------------------------------

func BenchmarkTableIICatalogCraft(b *testing.B) {
	c := charts.MustLoad("nginx")
	files, err := c.Render(nil, chart.ReleaseOptions{Name: "rel"})
	if err != nil {
		b.Fatal(err)
	}
	legit := chart.Objects(files)
	cat := attacks.Catalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range cat {
			target, ok := a.SelectTarget(legit)
			if !ok {
				b.Fatalf("no target for %s", a.ID)
			}
			if _, err := a.Craft(target); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Table III — mitigation end to end (per-workload sub-benchmarks)
// ---------------------------------------------------------------------

func BenchmarkTableIIIMitigation(b *testing.B) {
	// One iteration = the 15-attack catalog validated against a
	// workload's policy (the enforcement-decision cost of Table III).
	for _, name := range charts.Names() {
		b.Run(name, func(b *testing.B) {
			res, err := core.GeneratePolicy(charts.MustLoad(name), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			files, err := charts.MustLoad(name).Render(nil, chart.ReleaseOptions{Name: "rel"})
			if err != nil {
				b.Fatal(err)
			}
			legit := chart.Objects(files)
			var evils []object.Object
			for _, a := range attacks.Catalog() {
				target, ok := a.SelectTarget(legit)
				if !ok {
					b.Fatalf("no target for %s", a.ID)
				}
				evil, err := a.Craft(target)
				if err != nil {
					b.Fatal(err)
				}
				evils = append(evils, evil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blocked := 0
				for _, evil := range evils {
					if len(res.Validator.Validate(evil)) > 0 {
						blocked++
					}
				}
				if blocked != len(evils) {
					b.Fatalf("blocked %d/%d", blocked, len(evils))
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Table IV — deployment latency, direct vs through the proxy
// ---------------------------------------------------------------------

// benchCluster starts an API server (and optionally a KubeFence proxy in
// front) and returns the base URL to deploy against.
func benchCluster(b *testing.B, workload string, fenced bool) (string, func()) {
	b.Helper()
	api, err := apiserver.New(apiserver.Config{
		Store:           store.New(),
		FrontProxyUsers: []string{"kubefence-proxy"},
	})
	if err != nil {
		b.Fatal(err)
	}
	apiTS := httptest.NewServer(api)
	cleanup := func() { apiTS.Close() }
	if !fenced {
		return apiTS.URL, cleanup
	}
	res, err := core.GeneratePolicy(charts.MustLoad(workload), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	reg := registry.New(registry.Config{})
	if _, err := reg.Register(res.Workload, registry.Selector{}, res.Validator); err != nil {
		b.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{
		Upstream: apiTS.URL, Registry: reg, ProxyUser: "kubefence-proxy",
	})
	if err != nil {
		b.Fatal(err)
	}
	proxyTS := httptest.NewServer(p)
	return proxyTS.URL, func() { proxyTS.Close(); apiTS.Close() }
}

func benchDeploy(b *testing.B, workload string, fenced bool) {
	b.Helper()
	url, cleanup := benchCluster(b, workload, fenced)
	defer cleanup()
	op := &operator.Operator{
		Workload: workload,
		Chart:    charts.MustLoad(workload),
		Client:   client.New(url, client.WithUser("operator:"+workload)),
		Release:  chart.ReleaseOptions{Name: "rel", Namespace: "default"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op.Deploy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIVLatencyDirect(b *testing.B) {
	for _, name := range charts.Names() {
		b.Run(name, func(b *testing.B) { benchDeploy(b, name, false) })
	}
}

func BenchmarkTableIVLatencyKubeFence(b *testing.B) {
	for _, name := range charts.Names() {
		b.Run(name, func(b *testing.B) { benchDeploy(b, name, true) })
	}
}

// ---------------------------------------------------------------------
// §VI-E — per-request validation cost (the proxy's online overhead)
// ---------------------------------------------------------------------

func BenchmarkValidationPerRequest(b *testing.B) {
	res, err := core.GeneratePolicy(charts.MustLoad("nginx"), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	files, err := charts.MustLoad("nginx").Render(nil, chart.ReleaseOptions{Name: "rel"})
	if err != nil {
		b.Fatal(err)
	}
	var dep object.Object
	for _, o := range chart.Objects(files) {
		if o.Kind() == "Deployment" {
			dep = o
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := res.Validator.Validate(dep); len(vs) != 0 {
			b.Fatalf("violations: %v", vs)
		}
	}
}

// ---------------------------------------------------------------------
// Offline phase — policy generation cost per workload
// ---------------------------------------------------------------------

func BenchmarkPolicyGeneration(b *testing.B) {
	for _, name := range charts.Names() {
		b.Run(name, func(b *testing.B) {
			c := charts.MustLoad(name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.GeneratePolicy(c, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Ablation: covering-array exploration vs full cartesian product
// ---------------------------------------------------------------------

func BenchmarkAblationExplorationCovering(b *testing.B) {
	s := mustSchema(b, "nginx")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := explore.Variants(s); len(vs) == 0 {
			b.Fatal("no variants")
		}
	}
}

func BenchmarkAblationExplorationCartesian(b *testing.B) {
	s := mustSchema(b, "nginx")
	b.Logf("covering variants: %d, cartesian size: %d",
		explore.NumVariants(s), explore.NumCartesian(s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := explore.CartesianVariants(s, 4096); len(vs) == 0 {
			b.Fatal("no variants")
		}
	}
}

func BenchmarkAblationPipelineCartesian(b *testing.B) {
	// Full pipeline cost with exhaustive exploration (bounded), to
	// contrast with BenchmarkPolicyGeneration/nginx.
	c := charts.MustLoad("nginx")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.GeneratePolicy(c, core.Options{
			Exploration: core.ExplorationCartesian, CartesianLimit: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func mustSchema(b *testing.B, name string) *schema.Schema {
	b.Helper()
	s, err := schema.Generate(charts.MustLoad(name), schema.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// ---------------------------------------------------------------------
// Ablation: flat name-based validation vs tree-overlap validation
// ---------------------------------------------------------------------

func benchValidationCorpus(b *testing.B) ([]object.Object, object.Object) {
	b.Helper()
	c := charts.MustLoad("nginx")
	s, err := schema.Generate(c, schema.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var corpus []object.Object
	for _, v := range explore.Variants(s) {
		files, err := c.RenderWithValues(v, chart.ReleaseOptions{Name: "kfrelease"})
		if err != nil {
			b.Fatal(err)
		}
		corpus = append(corpus, chart.Objects(files)...)
	}
	files, err := c.Render(nil, chart.ReleaseOptions{Name: "rel"})
	if err != nil {
		b.Fatal(err)
	}
	var dep object.Object
	for _, o := range chart.Objects(files) {
		if o.Kind() == "Deployment" {
			dep = o
		}
	}
	return corpus, dep
}

func BenchmarkAblationTreeValidation(b *testing.B) {
	corpus, dep := benchValidationCorpus(b)
	v, err := validator.Build(corpus, validator.BuildOptions{
		Workload: "nginx", ReleaseName: "kfrelease",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := v.Validate(dep); len(vs) != 0 {
			b.Fatalf("violations: %v", vs)
		}
	}
}

func BenchmarkAblationFlatValidation(b *testing.B) {
	corpus, dep := benchValidationCorpus(b)
	v, err := validator.BuildFlat(corpus)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := v.Validate(dep); len(vs) != 0 {
			b.Fatalf("violations: %v", vs)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation: proxy-hop enforcement vs in-server admission validation
// (paper §VIII "Performance Optimizations")
// ---------------------------------------------------------------------

func BenchmarkAblationInServerAdmission(b *testing.B) {
	res, err := core.GeneratePolicy(charts.MustLoad("nginx"), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	api, err := apiserver.New(apiserver.Config{
		Store: store.New(),
		Admission: []apiserver.AdmissionFunc{
			func(user, verb string, obj object.Object) error {
				if vs := res.Validator.Validate(obj); len(vs) > 0 {
					return fmt.Errorf("kubefence: %s", vs[0])
				}
				return nil
			},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	apiTS := httptest.NewServer(api)
	defer apiTS.Close()
	op := &operator.Operator{
		Workload: "nginx",
		Chart:    charts.MustLoad("nginx"),
		Client:   client.New(apiTS.URL, client.WithUser("operator:nginx")),
		Release:  chart.ReleaseOptions{Name: "rel", Namespace: "default"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op.Deploy(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Public API round trip
// ---------------------------------------------------------------------

func BenchmarkPublicAPIPolicyAndValidate(b *testing.B) {
	c, err := kubefence.LoadBuiltinChart("mlflow")
	if err != nil {
		b.Fatal(err)
	}
	policy, err := kubefence.GeneratePolicy(c, kubefence.Options{})
	if err != nil {
		b.Fatal(err)
	}
	manifest := []byte(`
apiVersion: v1
kind: Service
metadata:
  name: m
spec:
  type: ClusterIP
  ports:
    - name: http
      port: 5000
      targetPort: http
      protocol: TCP
`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := policy.ValidateManifest(manifest); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation — the body's identity: keyed AES-GMAC tag vs SHA-256
// ---------------------------------------------------------------------

// BenchmarkBodyTag prices the tag that keys the scan memo and the
// decision cache (registry.BodyTag) at three body sizes around the
// re-applied manifests' (mean 0.7 KiB, largest 2.4 KiB), with the
// SHA-256 it replaced beside it. It lives here so that the registry
// and the proxy carry no SHA-256 at all.
func BenchmarkBodyTag(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"0.5KiB", 512}, {"1.2KiB", 1229}, {"4KiB", 4096}} {
		body := []byte(strings.Repeat(`{"apiVersion":"apps/v1","kind":"Deployment"}`, size.n/44+1)[:size.n])
		b.Run("gmac/"+size.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				registry.BodyTag(body)
			}
		})
		b.Run("sha256/"+size.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sha256.Sum256(body)
			}
		})
	}
}
