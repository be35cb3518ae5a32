package kubefence

import (
	"strings"
	"testing"
)

// TestLearnPolicyFacade mines a policy from a rendered chart trace via
// the public API and checks it behaves like any other Policy: validates
// benign traffic, denies unobserved surface, matches the oracle, registers.
func TestLearnPolicyFacade(t *testing.T) {
	c, err := LoadBuiltinChart("nginx")
	if err != nil {
		t.Fatal(err)
	}
	manifests, err := RenderChart(c, nil, ReleaseOptions{Name: "rel", Namespace: "nginx"})
	if err != nil {
		t.Fatal(err)
	}
	miner := NewMiner("nginx", LearnOptions{})
	for _, data := range manifests {
		if err := miner.ObserveManifest(data); err != nil {
			t.Fatal(err)
		}
		if err := miner.ObserveManifest(data); err != nil { // reconcile re-apply
			t.Fatal(err)
		}
	}
	if miner.Requests() != uint64(2*len(manifests)) {
		t.Fatalf("observed %d", miner.Requests())
	}
	mined, err := miner.Policy()
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range manifests {
		vs, err := mined.ValidateManifest(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 0 {
			t.Fatalf("mined policy denies its own trace: %v", vs)
		}
	}
	if vs := mined.ValidateObject(map[string]any{
		"apiVersion": "v1", "kind": "Pod",
		"metadata": map[string]any{"name": "x", "namespace": "nginx"},
		"spec":     map[string]any{"hostNetwork": true},
	}); len(vs) == 0 {
		t.Error("mined policy allowed a never-observed shape")
	}
	checkPolicyFacade(t, mined, manifests, hostNetworkAttack("nginx"))

	// The one-shot form over decoded objects builds the same kind of
	// Policy.
	objs := make([]map[string]any, len(manifests))
	for i, data := range manifests {
		o, err := parseManifest(data)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}
	batch, err := LearnPolicy("nginx", objs, LearnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkPolicyFacade(t, batch, manifests, hostNetworkAttack("nginx"))

	// Summaries and the chart diff are the audit trail.
	if len(miner.Summaries()) == 0 {
		t.Error("no mined path summaries")
	}
	chartPol, err := GeneratePolicy(c, Options{Workload: "nginx"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := miner.Diff(chartPol)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.MinedOnly) != 0 {
		t.Errorf("mined policy allows paths the chart policy does not: %v", d.MinedOnly)
	}
	if !strings.Contains(d.Render(), "nginx") {
		t.Error("diff render lost the workload")
	}
}

// TestRolloutFacade drives the lifecycle through the facade types.
func TestRolloutFacade(t *testing.T) {
	r := NewRegistry(RegistryConfig{})
	ctl := NewRolloutController(r, RolloutGates{MinLearnRequests: 2, MinShadowRequests: 2})
	if _, err := ctl.AddWorkload("w", Selector{Namespace: "ns"}, LearnOptions{}); err != nil {
		t.Fatal(err)
	}
	if mode, err := r.Mode("w"); err != nil || mode != ModeLearn {
		t.Fatalf("mode = %v, %v", mode, err)
	}
	obj := map[string]any{
		"apiVersion": "v1", "kind": "ConfigMap",
		"metadata": map[string]any{"name": "cm", "namespace": "ns"},
		"data":     map[string]any{"k": "v"},
	}
	e, _ := r.Entry("w")
	for i := 0; i < 3; i++ {
		e.ObserveLearn(obj)
	}
	ctl.Tick()
	if mode, _ := r.Mode("w"); mode != ModeShadow {
		t.Fatalf("mode = %v after learn tick", mode)
	}
	for i := 0; i < 3; i++ {
		if vs := r.Validate(e, nil, obj); len(vs) != 0 {
			t.Fatalf("shadow denies the learned trace: %v", vs)
		}
	}
	ctl.Tick()
	if mode, _ := r.Mode("w"); mode != ModeEnforce {
		t.Fatalf("mode = %v after shadow tick (stats %+v)", mode, e.ShadowStats())
	}
	// Manual override and back.
	if err := r.SetMode("w", ModeShadow); err != nil {
		t.Fatal(err)
	}
	if mode, _ := r.Mode("w"); mode != ModeShadow {
		t.Fatal("SetMode override ignored")
	}
}
