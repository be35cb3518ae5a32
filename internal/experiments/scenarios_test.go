package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestScenariosSmallCorpus is the CI-sized smoke: a 3-workload corpus,
// capped matrix, both engines. Every cell must hold the
// zero-FN / zero-FP / zero-error line, a second run with the same seed
// must replay the same events to the same verdicts, and the corpus
// metadata needed to reproduce the run must survive a JSON round trip.
func TestScenariosSmallCorpus(t *testing.T) {
	opts := ScenariosOptions{
		Synth:             3,
		Seed:              2,
		Concurrency:       4,
		MaxPerAttackClass: 1,
		CacheSize:         64,
	}
	res, err := Scenarios(opts)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Scenarios(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Cells) != len(res.Cells) {
		t.Fatalf("same seed, %d cells then %d", len(res.Cells), len(again.Cells))
	}
	for i, c := range res.Cells {
		a := again.Cells[i]
		if a.Workloads != c.Workloads || a.Engine != c.Engine || a.Events != c.Events ||
			a.BenignEvents != c.BenignEvents || a.AttackEvents != c.AttackEvents || a.Blocked != c.Blocked {
			t.Errorf("same seed, different cell (%d, %s): events %d/%d/%d blocked %d, then %d/%d/%d blocked %d",
				c.Workloads, c.Engine, c.Events, c.BenignEvents, c.AttackEvents, c.Blocked,
				a.Events, a.BenignEvents, a.AttackEvents, a.Blocked)
		}
	}
	if !res.Clean() {
		t.Fatalf("scenarios run not clean: verified=%v FN=%d FP=%d errors=%d",
			res.VerifiedPairs, res.TotalFalseNegatives, res.TotalFalsePositives, res.Errors)
	}
	// Default counts {1, N/4, N/2, N} for N=3 deduplicate to {1, 3}.
	if want := []int{1, 3}; len(res.Counts) != len(want) ||
		res.Counts[0] != want[0] || res.Counts[1] != want[1] {
		t.Errorf("counts = %v, want %v", res.Counts, want)
	}
	if want := len(res.Counts) * len(scenarioEngines()); len(res.Cells) != want {
		t.Errorf("got %d cells, want %d", len(res.Cells), want)
	}
	for _, engine := range scenarioEngines() {
		c := res.Cell(3, engine)
		if c == nil {
			t.Fatalf("no cell for (3, %s)", engine)
		}
		if c.Events == 0 || c.AttackEvents == 0 {
			t.Errorf("(3, %s): empty replay: %+v", engine, c)
		}
		// Prefix grouping: the 1-workload cell replays a strict prefix of
		// the 3-workload trace.
		lo := res.Cell(1, engine)
		if lo == nil || lo.Events >= c.Events {
			t.Errorf("(1, %s) not a strict prefix: %+v vs %+v", engine, lo, c)
		}
	}
	if res.Cell(2, "raw") != nil {
		t.Error("Cell returned a measurement for a count that never ran")
	}
	if res.Generator.Seed != 2 || res.Generator.Count != 3 {
		t.Errorf("generator knobs not recorded: %+v", res.Generator)
	}

	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back ScenariosResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seed != res.Seed || back.Generator != res.Generator ||
		len(back.Cells) != len(res.Cells) || !back.VerifiedPairs {
		t.Errorf("JSON round trip lost corpus metadata: %+v", back)
	}

	out := RenderScenarios(res)
	for _, want := range []string{"compiled", "raw", "clean: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// TestScenariosCustomCounts deduplicates, sorts, and bounds the
// requested counts, and rejects a list with nothing valid in it.
func TestScenariosCustomCounts(t *testing.T) {
	res, err := Scenarios(ScenariosOptions{
		Synth:             2,
		Seed:              3,
		Concurrency:       4,
		MaxPerAttackClass: 1,
		Counts:            []int{2, 1, 2, 7, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2}; len(res.Counts) != 2 || res.Counts[0] != want[0] || res.Counts[1] != want[1] {
		t.Errorf("counts = %v, want %v", res.Counts, want)
	}
	if _, err := Scenarios(ScenariosOptions{Synth: 2, Counts: []int{0, -1, 9}}); err == nil {
		t.Error("a count list with no valid entries should error")
	}
}

func TestDedupCounts(t *testing.T) {
	got := dedupCounts([]int{1, 1, 3, 0, -2, 5, 3}, 4)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("dedupCounts = %v, want [1 3]", got)
	}
}

// TestRobustnessWithSynthCorpus extends the robustness matrix with
// generated workloads: they register, replay, and score exactly like
// chart workloads, and the result records the corpus size.
func TestRobustnessWithSynthCorpus(t *testing.T) {
	res, err := Robustness(RobustnessOptions{
		Charts:            []string{"nginx"},
		Concurrency:       4,
		Seed:              1,
		MaxPerAttackClass: 1,
		Synth:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("synth-extended robustness run not clean: FN=%d FP=%d errors=%d mismatches=%v",
			res.FalseNegatives, res.FalsePositives, res.Errors, res.Mismatches)
	}
	if res.SynthWorkloads != 2 {
		t.Errorf("SynthWorkloads = %d, want 2", res.SynthWorkloads)
	}
	for _, w := range []string{"synth-000", "synth-001"} {
		ws, ok := res.PerWorkload[w]
		if !ok || ws.AttackEvents == 0 {
			t.Errorf("synthetic workload %s missing from the matrix: %+v", w, ws)
		}
	}
	if out := RenderRobustness(res); !strings.Contains(out, "synthetic corpus: 2") {
		t.Errorf("rendered report missing the synthetic corpus line:\n%s", out)
	}
}

// TestLearningWithSynthFleet adds a generated workload to the mining
// fleet: its policy is mined from the generated benign trace, converges,
// promotes, and holds the mutation matrix like a chart workload — while
// the chart list in the result stays pinned to the real charts.
func TestLearningWithSynthFleet(t *testing.T) {
	res, err := Learning(LearningOptions{
		Charts:            []string{"nginx"},
		Concurrency:       4,
		Seed:              5,
		MaxPerAttackClass: 1,
		CacheSize:         256,
		Synth:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("synth-extended learning run not clean: %s", RenderLearning(res))
	}
	if res.SynthWorkloads != 1 {
		t.Errorf("SynthWorkloads = %d, want 1", res.SynthWorkloads)
	}
	if len(res.Charts) != 1 || res.Charts[0] != "nginx" {
		t.Errorf("Charts = %v, want the chart corpus only", res.Charts)
	}
	c := res.Chart("synth-000")
	if c == nil {
		t.Fatal("no per-workload result for synth-000")
	}
	if !c.Converged || !c.Promoted || c.FalseNegatives != 0 {
		t.Errorf("synthetic workload lifecycle: %+v", c)
	}
	if out := RenderLearning(res); !strings.Contains(out, "synthetic fleet: 1") {
		t.Errorf("rendered report missing the synthetic fleet line:\n%s", out)
	}
}
