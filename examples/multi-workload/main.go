// Multi-workload: one KubeFence proxy enforcing all five builtin
// workload policies concurrently. Each policy governs the namespace
// named after its workload; every operator deploys through the same
// enforcement point, an attack against one tenant is blocked and
// attributed to it, and an individual policy is hot-swapped without
// disturbing the others.
//
//	go run ./examples/multi-workload
package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"sort"

	kubefence "repro"
	"repro/internal/apiserver"
	"repro/internal/attacks"
	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/client"
	"repro/internal/operator"
	"repro/internal/store"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- One registry holding every builtin workload policy. ---
	reg, err := kubefence.GenerateRegistry(kubefence.RegistryConfig{CacheSize: 4096})
	if err != nil {
		return err
	}
	fmt.Printf("registry: %d workload policies: %v\n", reg.Len(), reg.Workloads())

	// --- A simulated cluster fronted by a single KubeFence proxy. ---
	api, err := apiserver.New(apiserver.Config{
		Store: store.New(), FrontProxyUsers: []string{"kubefence-proxy"},
	})
	if err != nil {
		return err
	}
	apiTS := httptest.NewServer(api)
	defer apiTS.Close()
	p, err := kubefence.NewProxy(kubefence.ProxyConfig{
		Upstream: apiTS.URL, Registry: reg, ProxyUser: "kubefence-proxy",
	})
	if err != nil {
		return err
	}
	proxyTS := httptest.NewServer(p)
	defer proxyTS.Close()

	// --- Every operator deploys through the same enforcement point,
	// each into its own namespace. ---
	for _, name := range charts.Names() {
		op := &operator.Operator{
			Workload: name,
			Chart:    charts.MustLoad(name),
			Client:   client.New(proxyTS.URL, client.WithUser("operator:"+name)),
			Release:  chart.ReleaseOptions{Name: "prod", Namespace: name},
		}
		res, err := op.Deploy()
		if err != nil {
			return fmt.Errorf("deploying %s: %w", name, err)
		}
		fmt.Printf("deployed %-11s %2d objects through the shared proxy\n", name, res.Objects)
	}

	// --- A privileged-container attack aimed at the nginx tenant is
	// blocked by nginx's policy, and attributed to it. ---
	atk, _ := attacks.Lookup("E3")
	files, err := charts.MustLoad("nginx").Render(nil,
		chart.ReleaseOptions{Name: "prod", Namespace: "nginx"})
	if err != nil {
		return err
	}
	target, _ := atk.SelectTarget(chart.Objects(files))
	evil, err := atk.Craft(target)
	if err != nil {
		return err
	}
	cl := client.New(proxyTS.URL, client.WithUser("attacker"))
	if _, err := cl.Apply(evil); err == nil {
		return fmt.Errorf("attack unexpectedly admitted")
	}
	for _, rec := range p.Violations() {
		fmt.Printf("blocked: workload=%s kind=%s: %s\n",
			rec.Workload, rec.Kind, rec.Violations[0])
	}

	// --- Hot-swap one tenant's policy (strict lock mode) while the
	// other four keep serving untouched. ---
	c, err := kubefence.LoadBuiltinChart("nginx")
	if err != nil {
		return err
	}
	strict, err := kubefence.GeneratePolicy(c, kubefence.Options{
		Workload: "nginx", Mode: kubefence.LockRequired,
	})
	if err != nil {
		return err
	}
	if err := strict.Swap(reg); err != nil {
		return err
	}
	entry, _ := reg.Entry("nginx")
	fmt.Printf("hot-swapped nginx policy to strict mode (generation %d)\n", entry.Generation())

	// --- Per-workload enforcement metrics. ---
	metrics := reg.Metrics()
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := metrics[name]
		fmt.Printf("metrics %-11s requests=%-3d denied=%-2d cacheHits=%-3d validation=%s\n",
			name, m.Requests, m.Denied, m.CacheHits, m.ValidationTime)
	}
	return nil
}
