package kubefence

import (
	"strings"
	"testing"
)

// TestGenerateWorkloadsFacade exercises the synthetic-corpus generator
// through the public facade: deterministic pairs that verify cleanly.
func TestGenerateWorkloadsFacade(t *testing.T) {
	ws, err := GenerateWorkloads(SynthOptions{Seed: 5, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("GenerateWorkloads returned %d workloads, want 3", len(ws))
	}
	for i := range ws {
		if err := VerifyWorkload(&ws[i]); err != nil {
			t.Errorf("workload %s failed verification: %v", ws[i].Name, err)
		}
	}
	again, err := GenerateWorkloads(SynthOptions{Seed: 5, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if ws[i].Name != again[i].Name || ws[i].BaseChart != again[i].BaseChart {
			t.Errorf("workload %d not deterministic: %+v vs %+v", i, ws[i], again[i])
		}
	}
}

// TestRunScenariosFacade drives a small scenarios run through the public
// facade: every cell must hold the zero-FN/FP line on the generated
// corpus under all three validation paths.
func TestRunScenariosFacade(t *testing.T) {
	report, err := RunScenarios(ScenariosOptions{
		Synth:             4,
		Seed:              2,
		Concurrency:       4,
		MaxPerAttackClass: 1,
		CacheSize:         256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Errorf("scenarios run not clean: verified=%v FN=%d FP=%d errors=%d",
			report.VerifiedPairs, report.TotalFalseNegatives,
			report.TotalFalsePositives, report.Errors)
	}
	// 3 engines x the deduplicated counts {1, 2, 4}.
	if len(report.Cells) != 9 {
		t.Errorf("got %d cells, want 9", len(report.Cells))
	}
	out := RenderScenariosReport(report)
	if !strings.Contains(out, "interpreted") || !strings.Contains(out, "clean: true") {
		t.Errorf("rendered report missing expected content:\n%s", out)
	}
}
