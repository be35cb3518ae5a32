package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSeededInputs pins reproducibility: the seed alone decides the
// bytes every workload sends.
func TestSeededInputs(t *testing.T) {
	hashes := func(seed int64) map[string]string {
		in, err := generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, w := range workloads {
			out[w.name] = bodiesHash(w.traffic(in), hashedBodies)
		}
		return out
	}
	first, again, other := hashes(1), hashes(1), hashes(2)
	for _, w := range workloads {
		if first[w.name] != again[w.name] {
			t.Errorf("%s: seed 1 gave %s, then %s", w.name, first[w.name], again[w.name])
		}
		if first[w.name] == other[w.name] {
			t.Errorf("%s: seeds 1 and 2 gave the same bodies (%s)", w.name, first[w.name])
		}
	}
}

// TestSmoke runs every workload end to end (one slice) and traced (500
// requests, probes of 3 passes) and checks that each run reports exactly the
// metrics BENCHMARK.json declares, fails no operation and passes its
// validity self-checks — which keeps the harness, the manifest and the
// product's public calls in step.
func TestSmoke(t *testing.T) {
	m, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(1)
	if err != nil {
		t.Fatal(err)
	}
	probes, err := runProbes(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	spans := t.TempDir()
	for _, w := range workloads {
		res, err := runEndToEnd(w, in, 0.25)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, _, err := runTraced(w, in, probes, 0.25, 500, spans)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, run := range []struct {
			res   *result
			decls []metricDecl
		}{{res, m.EndToEnd}, {traced, m.PerLayer}} {
			if _, err := units(run.res, run.decls); err != nil {
				t.Error(err)
			}
			if !run.res.correct() || run.res.Attempted == 0 {
				t.Errorf("%s: attempted %d, failed %d, invalid %v", w.name, run.res.Attempted, run.res.Failed, run.res.Invalid)
			}
		}
		if st, err := os.Stat(filepath.Join(spans, w.name+".jsonl")); err != nil || st.Size() == 0 {
			t.Errorf("%s: no span file written (%v)", w.name, err)
		}
	}
}
