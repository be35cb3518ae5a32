package kubefence

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/object"
)

// hostNetworkAttack is the E1-style escape every builtin chart policy
// must deny: a Pod asking for the node's network namespace.
func hostNetworkAttack(namespace string) map[string]any {
	return map[string]any{
		"apiVersion": "v1",
		"kind":       "Pod",
		"metadata":   map[string]any{"name": "evil", "namespace": namespace},
		"spec": map[string]any{
			"hostNetwork": true,
			"containers": []any{map[string]any{
				"name": "c", "image": "evil/cryptominer:latest",
			}},
		},
	}
}

// checkPolicyFacade pins the facade contract of one Policy against the
// interpreted oracle p.Validator().Validate:
//   - ValidateManifest and ValidateObject return the oracle's violation
//     list, on every legit manifest and on the attack;
//   - every legit manifest is allowed, and MatchRaw vouches for its
//     JSON and MatchRawYAML for its YAML;
//   - the attack is denied and neither wire vouches for it.
func checkPolicyFacade(t *testing.T, p *Policy, legit [][]byte, attack map[string]any) {
	t.Helper()
	if len(legit) == 0 {
		t.Fatalf("%s: no legit manifests", p.Workload)
	}
	for _, m := range legit {
		obj, err := object.ParseManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		want := p.Validator().Validate(obj)
		got, err := p.ValidateManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: ValidateManifest diverges from the oracle:\noracle:  %v\npolicy:  %v\n%s", p.Workload, want, got, m)
		}
		if got := p.ValidateObject(obj); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: ValidateObject diverges from the oracle:\noracle:  %v\npolicy:  %v", p.Workload, want, got)
		}
		if len(got) != 0 {
			t.Fatalf("%s: legit manifest denied: %v\n%s", p.Workload, got, m)
		}
		body, err := json.Marshal(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !p.MatchRaw(body) {
			t.Errorf("%s: MatchRaw does not vouch for a legit body:\n%s", p.Workload, body)
		}
		if !p.MatchRawYAML(m) {
			t.Errorf("%s: MatchRawYAML does not vouch for a legit manifest:\n%s", p.Workload, m)
		}
	}

	want := p.Validator().Validate(object.Object(attack))
	got := p.ValidateObject(attack)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: ValidateObject diverges from the oracle on the attack:\noracle:  %v\npolicy:  %v", p.Workload, want, got)
	}
	if len(got) == 0 {
		t.Fatalf("%s: hostNetwork attack allowed", p.Workload)
	}
	attackYAML, err := object.Object(attack).MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := p.ValidateManifest(attackYAML); err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: ValidateManifest diverges from the oracle on the attack (err %v):\noracle:  %v\npolicy:  %v", p.Workload, err, want, got)
	}
	attackJSON, err := json.Marshal(attack)
	if err != nil {
		t.Fatal(err)
	}
	if p.MatchRaw(attackJSON) {
		t.Errorf("%s: MatchRaw vouches for the attack", p.Workload)
	}
	if p.MatchRawYAML(attackYAML) {
		t.Errorf("%s: MatchRawYAML vouches for the attack", p.Workload)
	}
}

// TestPolicyMatchesOracleFacade holds every builtin chart's policy, and
// their union, to the oracle on the chart's own manifests and on the
// hostNetwork attack.
func TestPolicyMatchesOracleFacade(t *testing.T) {
	var all []*Policy
	var allLegit [][]byte
	for _, name := range BuiltinCharts() {
		c, err := LoadBuiltinChart(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := GeneratePolicy(c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		legit, err := RenderChart(c, nil, ReleaseOptions{Name: "rel", Namespace: "default"})
		if err != nil {
			t.Fatal(err)
		}
		checkPolicyFacade(t, p, legit, hostNetworkAttack("default"))
		all = append(all, p)
		allLegit = append(allLegit, legit...)
	}
	if len(all) != 5 {
		t.Fatalf("checked %d builtin charts, want 5", len(all))
	}
	u, err := UnionPolicies("cluster", all...)
	if err != nil {
		t.Fatal(err)
	}
	checkPolicyFacade(t, u, allLegit, hostNetworkAttack("default"))
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
