package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/mutate"
)

// TestRobustnessReducedMatrix is the CI-sized smoke: two workloads,
// capped variants, caching enabled so cached decisions are also scored,
// replayed through both engines on both wires — the interpreted rows are
// the differential run that proves the tree walk and the compiled
// program hold the same 0 FN / 0 FP line end to end, the YAML rows drive
// the proxy's YAML raw pipeline (streaming scan + match with decode
// fallback).
func TestRobustnessReducedMatrix(t *testing.T) {
	for _, tc := range []struct {
		name        string
		interpreted bool
		yamlWire    bool
	}{
		{name: "compiled-json"},
		{name: "compiled-yaml", yamlWire: true},
		{name: "interpreted-json", interpreted: true},
		{name: "interpreted-yaml", interpreted: true, yamlWire: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Robustness(RobustnessOptions{
				Charts:            []string{"nginx", "mlflow"},
				Concurrency:       4,
				Seed:              7,
				MaxPerAttackClass: 2,
				CacheSize:         1024,
				Interpreted:       tc.interpreted,
				YAMLWire:          tc.yamlWire,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Clean() {
				t.Errorf("reduced run not clean: FN=%d FP=%d errors=%d mismatches=%v",
					res.FalseNegatives, res.FalsePositives, res.Errors, res.Mismatches)
			}
			if got := res.Engine + "-" + res.Wire; got != tc.name {
				t.Errorf("result engine-wire = %q, want %q", got, tc.name)
			}
			if res.AttackEvents == 0 || res.BenignEvents == 0 {
				t.Errorf("trace not interleaved: %d attacks, %d benign", res.AttackEvents, res.BenignEvents)
			}
			if len(res.PerWorkload) != 2 {
				t.Errorf("per-workload scores for %d workloads, want 2", len(res.PerWorkload))
			}
			out := RenderRobustness(res)
			for _, want := range []string{"mutation class", "nginx", "mlflow", "clean: true"} {
				if !strings.Contains(out, want) {
					t.Errorf("rendered output missing %q:\n%s", want, out)
				}
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{`"per_class"`, `"false_negatives"`, `"events_per_sec"`} {
				if !strings.Contains(string(data), want) {
					t.Errorf("JSON missing %s", want)
				}
			}
		})
	}
}

// TestRobustnessFullMatrix is the acceptance gate: the full mutation
// matrix across every builtin chart must exceed 500 scenarios and score
// zero false negatives and zero false positives.
func TestRobustnessFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full adversarial matrix")
	}
	res, err := Robustness(RobustnessOptions{Concurrency: 8, Seed: 1, CacheSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackEvents < 500 {
		t.Errorf("full matrix generated %d scenarios, want >= 500", res.AttackEvents)
	}
	if !res.Clean() {
		t.Errorf("full run not clean: FN=%d FP=%d errors=%d mismatches=%v",
			res.FalseNegatives, res.FalsePositives, res.Errors, res.Mismatches)
	}
	if want := len(mutate.AllClasses()); len(res.PerClass) != want {
		t.Errorf("scored %d mutation classes, want %d", len(res.PerClass), want)
	}
}

// TestRobustnessYAMLWireFullMatrix is the YAML-pipeline acceptance gate:
// the complete mutation matrix across every builtin chart, every body a
// YAML manifest, zero false negatives and zero false positives.
func TestRobustnessYAMLWireFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full adversarial matrix")
	}
	res, err := Robustness(RobustnessOptions{
		Concurrency: 8, Seed: 1, CacheSize: 4096, YAMLWire: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackEvents < 500 {
		t.Errorf("full YAML-wire matrix generated %d scenarios, want >= 500", res.AttackEvents)
	}
	if !res.Clean() {
		t.Errorf("full YAML-wire run not clean: FN=%d FP=%d errors=%d mismatches=%v",
			res.FalseNegatives, res.FalsePositives, res.Errors, res.Mismatches)
	}
}

// TestRobustnessUnknownChart rejects typos instead of silently shrinking
// the matrix.
func TestRobustnessUnknownChart(t *testing.T) {
	if _, err := Robustness(RobustnessOptions{Charts: []string{"nope"}}); err == nil {
		t.Error("unknown chart should error")
	}
}
