package kubefence

import (
	"testing"

	"repro/internal/object"
)

// parseManifest is a test helper bridging rendered YAML back to objects.
func parseManifest(data []byte) (object.Object, error) {
	return object.ParseManifest(data)
}

// TestPolicyRegistersItsProgram holds the facade to compiling a policy
// once: Register / Swap on a registry and RegisterOn / SwapOn on a plane
// install the program the Policy was built with, not a recompiled copy.
func TestPolicyRegistersItsProgram(t *testing.T) {
	p := nginxPolicy(t)
	r := NewRegistry(RegistryConfig{})
	checkEntry := func(when string) {
		t.Helper()
		e, ok := r.Entry(p.Workload)
		if !ok {
			t.Fatalf("%s: workload %s not registered", when, p.Workload)
		}
		if e.Program() != p.program {
			t.Errorf("%s: the entry enforces a recompiled program", when)
		}
	}
	if err := p.Register(r, Selector{}); err != nil {
		t.Fatal(err)
	}
	checkEntry("after Register")
	if err := p.Swap(r); err != nil {
		t.Fatal(err)
	}
	checkEntry("after Swap")

	pl, err := NewPlane(PlaneConfig{Replicas: 2, Upstream: "http://upstream.invalid"})
	if err != nil {
		t.Fatal(err)
	}
	checkPlane := func(when string) {
		t.Helper()
		prog, err := pl.Program(p.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if prog != p.program {
			t.Errorf("%s: the plane publishes a recompiled program", when)
		}
	}
	if err := p.RegisterOn(pl, Selector{Namespace: p.Workload}); err != nil {
		t.Fatal(err)
	}
	checkPlane("after RegisterOn")
	if err := p.SwapOn(pl); err != nil {
		t.Fatal(err)
	}
	checkPlane("after SwapOn")
}
