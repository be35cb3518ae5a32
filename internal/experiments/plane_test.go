package experiments

import "testing"

// TestPlaneExperimentSmoke runs a reduced tier end to end: the
// correctness matrix must hold the zero-FN / zero-FP line through the
// rebalanced sharded tier, and the cache-retention cell stays off while
// the decision cache is.
func TestPlaneExperimentSmoke(t *testing.T) {
	res, err := Plane(PlaneOptions{
		Replicas:          2,
		Synth:             8,
		MaxPerAttackClass: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("plane run not clean: FN=%d FP=%d err=%d verified=%v",
			res.TotalFalseNegatives, res.TotalFalsePositives, res.Errors, res.VerifiedPairs)
	}
	if res.Replicas != 2 {
		t.Fatalf("matrix replicas = %d, want 2", res.Replicas)
	}
	if res.Matrix.AttackEvents == 0 || res.Matrix.BenignEvents == 0 {
		t.Fatalf("matrix replayed nothing: %+v", res.Matrix)
	}
	if res.Rebalance != nil {
		t.Fatalf("rebalance cell measured with the cache disabled: %+v", res.Rebalance)
	}
	// A dirty matrix must read as dirty: kfbench's exit code hangs on it.
	res.TotalFalsePositives = 2
	if res.Clean() {
		t.Error("a run with false positives reports clean")
	}
}

// TestPlaneExperimentRebalanceCell enables the decision cache so the
// hot-set handoff cell runs. Sixteen zipf-loaded workloads hashed over
// four replicas sit several times past the placer's threshold, so the
// rebalance must move shards, and every migrated workload must be
// answered warm at its destination (the probes replay objects validated
// moments earlier, so anything below full retention means the handoff
// dropped entries). The matrix then scores that migrated layout.
func TestPlaneExperimentRebalanceCell(t *testing.T) {
	res, err := Plane(PlaneOptions{
		Replicas:          4,
		Synth:             16,
		CacheSize:         256,
		MaxPerAttackClass: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("plane run not clean: FN=%d FP=%d err=%d",
			res.TotalFalseNegatives, res.TotalFalsePositives, res.Errors)
	}
	if res.MatrixRebalanceMoves == 0 {
		t.Error("correctness matrix ran over an unmigrated tier")
	}
	rc := res.Rebalance
	if rc == nil {
		t.Fatal("no rebalance cell despite a live cache")
	}
	if rc.Moves == 0 || rc.Probes == 0 {
		t.Fatalf("imbalance %.2f moved nothing: %+v", rc.ImbalanceBefore, rc)
	}
	if rc.HandoffEntries == 0 {
		t.Fatalf("shards moved (%d moves) but no cache entries handed off", rc.Moves)
	}
	if rc.RetainedHits > rc.Probes || rc.Retention < 0.5 {
		t.Fatalf("retention %.2f (%d/%d) outside [0.5, 1] right after warmup",
			rc.Retention, rc.RetainedHits, rc.Probes)
	}
}
