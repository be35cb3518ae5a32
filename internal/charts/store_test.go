package charts

import (
	"sort"
	"testing"

	"repro/internal/chart"
	"repro/internal/core"
	"repro/internal/object"
)

// renderStore renders the multi-service scenario chart into its objects.
func renderStore(t *testing.T) []object.Object {
	t.Helper()
	files, err := MustLoad("store").Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: "store"})
	if err != nil {
		t.Fatal(err)
	}
	return chart.Objects(files)
}

// TestStoreScenarioFootprint pins the multi-service chart's resource
// surface: three components with their Services and ServiceAccounts,
// per-component credential Secrets, RBAC for the processor, and the DB
// NetworkPolicy — and checks it stays OUT of the five-chart corpus the
// robustness and learning matrices are pinned to.
func TestStoreScenarioFootprint(t *testing.T) {
	for _, name := range Names() {
		if name == "store" {
			t.Fatal("store must not join the baseline corpus (Names)")
		}
	}
	found := false
	for _, name := range ScenarioNames() {
		if name == "store" {
			found = true
		}
	}
	if !found {
		t.Fatal("store missing from ScenarioNames")
	}

	objs := renderStore(t)
	kinds := map[string]bool{}
	for _, o := range objs {
		kinds[o.Kind()] = true
		if o.Namespace() != "store" {
			t.Errorf("%s/%s rendered outside the release namespace: %q", o.Kind(), o.Name(), o.Namespace())
		}
	}
	var got []string
	for k := range kinds {
		got = append(got, k)
	}
	sort.Strings(got)
	want := ExpectedKinds("store")
	if len(got) != len(want) {
		t.Fatalf("rendered kinds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rendered kinds %v, want %v", got, want)
		}
	}

	// Every component is present on both workloads and Secrets, keyed by
	// the recommended component label.
	workloads := map[string]bool{}
	secrets := map[string]bool{}
	for _, o := range objs {
		labels, ok := object.GetMap(o, "metadata.labels")
		if !ok {
			continue
		}
		component, _ := labels["app.kubernetes.io/component"].(string)
		switch o.Kind() {
		case "Deployment", "StatefulSet":
			workloads[component] = true
		case "Secret":
			secrets[component] = true
		}
	}
	for _, c := range []string{"store-api", "order-processor", "customer-db"} {
		if !workloads[c] {
			t.Errorf("no workload labeled component %s", c)
		}
		if !secrets[c] {
			t.Errorf("no credentials Secret labeled component %s", c)
		}
	}
}

// TestStorePolicySelfConsistent runs the store chart through the full
// policy-generation pipeline and checks the benign trace passes its own
// policy — the same (policy, trace) contract the corpus charts satisfy.
func TestStorePolicySelfConsistent(t *testing.T) {
	res, err := core.GeneratePolicy(MustLoad("store"), core.Options{Namespace: "store"})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range renderStore(t) {
		if vs := res.Validator.Validate(o); len(vs) != 0 {
			t.Errorf("benign %s/%s denied: %v", o.Kind(), o.Name(), vs)
		}
	}
}
