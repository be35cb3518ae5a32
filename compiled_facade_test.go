package kubefence

import (
	"reflect"
	"testing"
)

// TestCompiledPolicyMatchesInterpretedFacade pins the facade contract:
// Policy.Compile returns an engine whose verdicts and violations are
// byte-identical to the tree-walk ValidateObject/ValidateManifest.
func TestCompiledPolicyMatchesInterpretedFacade(t *testing.T) {
	c, err := LoadBuiltinChart("nginx")
	if err != nil {
		t.Fatal(err)
	}
	p, err := GeneratePolicy(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}

	legit, err := RenderChart(c, nil, ReleaseOptions{Name: "rel", Namespace: "default"})
	if err != nil {
		t.Fatal(err)
	}
	if len(legit) == 0 {
		t.Fatal("chart rendered no manifests")
	}
	for _, m := range legit {
		want, err := p.ValidateManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cp.ValidateManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("engines diverge on legit manifest:\ninterpreted: %v\ncompiled:    %v", want, got)
		}
		if len(got) != 0 {
			t.Fatalf("legit manifest denied: %v", got)
		}
	}

	attack := map[string]any{
		"apiVersion": "v1",
		"kind":       "Pod",
		"metadata":   map[string]any{"name": "evil", "namespace": "default"},
		"spec": map[string]any{
			"hostNetwork": true,
			"containers": []any{map[string]any{
				"name": "c", "image": "evil/cryptominer:latest",
			}},
		},
	}
	want := p.ValidateObject(attack)
	got := cp.ValidateObject(attack)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("engines diverge on attack:\ninterpreted: %v\ncompiled:    %v", want, got)
	}
	if len(got) == 0 {
		t.Fatal("hostNetwork attack allowed by compiled policy")
	}
}

// TestRegistryEngineSelection checks that a registry runs the compiled
// engine: every registered entry carries its compiled program.
func TestRegistryEngineSelection(t *testing.T) {
	r, err := GenerateRegistry(RegistryConfig{CacheSize: 64}, "nginx")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Workloads(); len(got) != 1 || got[0] != "nginx" {
		t.Fatalf("workloads = %v", got)
	}
	e, ok := r.Entry("nginx")
	if !ok {
		t.Fatal("nginx entry missing")
	}
	if e.Program() == nil {
		t.Fatal("registered entry has no compiled program")
	}
}
