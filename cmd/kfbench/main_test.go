package main

import (
	"strings"
	"testing"
)

// TestRunUnknownExperiment: a name the table does not hold — including
// the retired timing experiments — fails with the table's own names, so
// the error cannot drift from what the command runs.
func TestRunUnknownExperiment(t *testing.T) {
	for _, name := range []string{"nope", "latency", "throughput", "e2e", "telemetry"} {
		err := run([]string{"-experiment", name})
		if err == nil {
			t.Errorf("%s: unknown experiment should error", name)
			continue
		}
		for _, e := range table {
			if !strings.Contains(err.Error(), e.name) {
				t.Errorf("%s: error %q does not list %s", name, err, e.name)
			}
		}
	}
}

// TestDirtyRunFails: a report that is not clean fails the run in both
// output modes.
func TestDirtyRunFails(t *testing.T) {
	dirty := experiment{"dirty", func(options) (report, error) {
		return report{text: "FN=1", data: map[string]int{"false_negatives": 1}}, nil
	}}
	for _, jsonOut := range []bool{false, true} {
		if err := runExperiment(dirty, options{}, jsonOut); err == nil ||
			!strings.Contains(err.Error(), "dirty: run not clean") {
			t.Errorf("json=%v: dirty run returned %v", jsonOut, err)
		}
	}
}

func TestRunFastExperiments(t *testing.T) {
	for _, name := range []string{"fig5", "fig9", "fig11", "table1", "table2"} {
		if err := run([]string{"-experiment", name}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunTable3EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment")
	}
	if err := run([]string{"-experiment", "table3"}); err != nil {
		t.Error(err)
	}
}

func TestRunRobustnessReduced(t *testing.T) {
	if err := run([]string{"-experiment", "robustness", "-charts", "nginx",
		"-max-per-class", "1", "-concurrency", "4"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"-experiment", "robustness", "-charts", "nope"}); err == nil {
		t.Error("unknown chart should error")
	}
}

func TestRunScenariosReduced(t *testing.T) {
	// Human-readable and JSON modes over a tiny corpus with a capped
	// matrix; kfbench exits non-zero if the run is not clean.
	if err := run([]string{"-experiment", "scenarios", "-synth", "2",
		"-max-per-class", "1", "-concurrency", "4", "-cache", "64"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"-experiment", "scenarios", "-synth", "2",
		"-max-per-class", "1", "-concurrency", "4", "-json"}); err != nil {
		t.Error(err)
	}
}

func TestRunPlaneReduced(t *testing.T) {
	// Reduced tier matrix in JSON mode; kfbench exits non-zero if the
	// correctness matrix is not clean.
	if err := run([]string{"-experiment", "plane", "-replicas", "2",
		"-synth", "4", "-max-per-class", "1",
		"-concurrency", "4", "-cache", "64", "-json"}); err != nil {
		t.Error(err)
	}
	for _, n := range []string{"0", "-3"} {
		if err := run([]string{"-experiment", "plane", "-replicas", n}); err == nil {
			t.Errorf("-replicas %s should error, not fall back to the default tier", n)
		}
	}
}

func TestRunRobustnessWithSynth(t *testing.T) {
	if err := run([]string{"-experiment", "robustness", "-charts", "nginx",
		"-synth", "2", "-max-per-class", "1", "-concurrency", "4"}); err != nil {
		t.Error(err)
	}
}

func TestRunLearningReduced(t *testing.T) {
	if err := run([]string{"-experiment", "learning", "-charts", "nginx",
		"-max-per-class", "1", "-concurrency", "4", "-synth", "1"}); err != nil {
		t.Error(err)
	}
}

func TestSplitCharts(t *testing.T) {
	if got := splitCharts(""); got != nil {
		t.Errorf("splitCharts(\"\") = %v, want nil", got)
	}
	got := splitCharts(" nginx , mlflow ")
	if len(got) != 2 || got[0] != "nginx" || got[1] != "mlflow" {
		t.Errorf("splitCharts = %v", got)
	}
}
