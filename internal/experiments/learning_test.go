package experiments

import (
	"testing"

	"repro/internal/charts"
)

// TestLearningReducedMatrix drives the full learn→shadow→enforce
// pipeline against the reduced mutation matrix — nginx alone under
// -short, all five builtin charts otherwise: every mined policy must
// converge, promote, hold zero false negatives, and never deny the
// benign trace it was mined from.
func TestLearningReducedMatrix(t *testing.T) {
	names := []string{"nginx"}
	if !testing.Short() {
		names = charts.Names()
	}
	res, err := Learning(LearningOptions{
		Charts:            names,
		Concurrency:       4,
		Seed:              7,
		MaxPerAttackClass: 1,
		CacheSize:         256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("learning run not clean: %s", RenderLearning(res))
	}
	for _, name := range names {
		c := res.Chart(name)
		if c == nil {
			t.Fatalf("no %s result", name)
		}
		if !c.Converged || c.ConvergenceRequests == 0 {
			t.Fatalf("%s: no convergence: %+v", name, c)
		}
		// Learn epoch + clean shadow epoch: convergence costs exactly two
		// passes over the benign trace with deterministic replay.
		if want := 2 * c.BenignPerEpoch; c.ConvergenceRequests != want {
			t.Errorf("%s: convergence_requests = %d, want %d", name, c.ConvergenceRequests, want)
		}
		if c.AttackScenarios == 0 || c.FalseNegatives != 0 {
			t.Fatalf("%s: attack phase: %+v", name, c)
		}
		if c.MinedKinds == 0 || c.MinedPaths == 0 {
			t.Errorf("%s: mined policy empty: %+v", name, c)
		}
		// Traffic can only reveal surface the chart actually exercises: the
		// mined policy must never allow paths the chart-derived one denies.
		if c.DiffMinedOnly != 0 {
			t.Errorf("%s: mined policy allows %d paths the chart policy does not", name, c.DiffMinedOnly)
		}
	}
	if testing.Verbose() {
		t.Log("\n" + RenderLearning(res))
	}
}
