package synth

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/mutate"
	"repro/internal/replay"
)

// traceBytes renders a workload's benign trace to canonical JSON for
// byte-level comparison across generator runs.
func traceBytes(t *testing.T, w *Workload) []byte {
	t.Helper()
	b, err := json.Marshal(w.Objects)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOptionsResolved: Resolved applies the documented defaults without
// mutating the receiver, and preserves explicit knobs — the form the
// scenarios report records so a run is reproducible from its JSON.
func TestOptionsResolved(t *testing.T) {
	var zero Options
	r := zero.Resolved()
	if r.Seed != 1 || r.Count != 100 || r.NamePrefix != "synth" {
		t.Errorf("zero-value defaults: %+v", r)
	}
	if r.GraftPercent != 60 || r.ResamplePercent != 80 ||
		r.SubsetPercent != 50 || r.SupersetPercent != 50 {
		t.Errorf("perturbation defaults: %+v", r)
	}
	if zero != (Options{}) {
		t.Errorf("Resolved mutated its receiver: %+v", zero)
	}
	explicit := Options{Seed: 9, Count: 3, GraftPercent: 10}
	if got := explicit.Resolved(); got.Seed != 9 || got.Count != 3 || got.GraftPercent != 10 {
		t.Errorf("explicit knobs lost: %+v", got)
	}
}

// TestCorpusDeterministic: the same seed yields byte-identical benign
// traces and the same derivation metadata on every run.
func TestCorpusDeterministic(t *testing.T) {
	a, err := Generate(Options{Seed: 7, Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Options{Seed: 7, Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].BaseChart != b[i].BaseChart || a[i].DonorChart != b[i].DonorChart {
			t.Fatalf("workload %d metadata diverged: %+v vs %+v", i, a[i], b[i])
		}
		if string(traceBytes(t, &a[i])) != string(traceBytes(t, &b[i])) {
			t.Fatalf("workload %d trace diverged between runs", i)
		}
	}
}

// TestCorpusPrefixStable: workload i depends only on (seed, i), so a
// small corpus is a prefix of a larger one — the contract that makes a
// reduced matrix a strict subset of the full-corpus one.
func TestCorpusPrefixStable(t *testing.T) {
	small, err := Generate(Options{Seed: 3, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Generate(Options{Seed: 3, Count: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range small {
		if string(traceBytes(t, &small[i])) != string(traceBytes(t, &large[i])) {
			t.Fatalf("workload %d differs between Count=5 and Count=12 corpora", i)
		}
	}
}

// TestCorpusSelfValidating: every generated pair passes Verify — the
// benign trace is accepted by its own policy through both engines.
func TestCorpusSelfValidating(t *testing.T) {
	ws, err := Generate(Options{Seed: 1, Count: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if err := Verify(&ws[i]); err != nil {
			t.Error(err)
		}
	}
}

// TestCorpusDiversity: the corpus actually recombines — multiple base
// charts, at least one grafted donor, unique names, and objects homed in
// the workload's own namespace.
func TestCorpusDiversity(t *testing.T) {
	ws, err := Generate(Options{Seed: 1, Count: 20})
	if err != nil {
		t.Fatal(err)
	}
	bases := map[string]bool{}
	names := map[string]bool{}
	grafted := 0
	for i := range ws {
		w := &ws[i]
		bases[w.BaseChart] = true
		if names[w.Name] {
			t.Fatalf("duplicate workload name %s", w.Name)
		}
		names[w.Name] = true
		if w.DonorChart != "" {
			grafted++
		}
		if len(w.Objects) == 0 {
			t.Fatalf("%s: empty benign trace", w.Name)
		}
		for _, o := range w.Objects {
			if o.Namespace() != w.Name {
				t.Errorf("%s: %s/%s rendered into namespace %q", w.Name, o.Kind(), o.Name(), o.Namespace())
			}
		}
	}
	if len(bases) < 2 {
		t.Errorf("corpus uses only base charts %v", bases)
	}
	if grafted == 0 {
		t.Error("no workload received donor grafts")
	}
}

// TestCorpusFeedsMutationMatrix: generated workloads plug into the
// mutation matrix like the hand-written charts do — scenarios generate,
// both benign and attack events resolve to REST paths, and the tree walk
// and the compiled program return identical violation lists on every
// scenario (the differential for synthetic policies under attack).
func TestCorpusFeedsMutationMatrix(t *testing.T) {
	ws, err := Generate(Options{Seed: 2, Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		w := &ws[i]
		scs, err := mutate.ForCatalog(w.Objects, mutate.Options{MaxPerAttackClass: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(scs) == 0 {
			t.Fatalf("%s: mutation matrix produced no scenarios", w.Name)
		}
		prog, err := compile.Compile(w.Policy)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, o := range w.Objects {
			if _, err := replay.BenignEvent(w.Name, o, "POST"); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
		}
		for _, sc := range scs {
			if _, err := replay.AttackEvent(w.Name, sc); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if want, got := w.Policy.Validate(sc.Object), prog.Validate(sc.Object); !reflect.DeepEqual(want, got) {
				t.Errorf("%s: engines diverge on scenario %s:\ninterpreted: %v\ncompiled:    %v", w.Name, sc.ID, want, got)
			}
		}
	}
}

// FuzzSynthSelfConsistency fuzzes the generator's seed and recombination
// knobs and checks the core contract on every generated pair: the benign
// trace passes its own policy, and the compiled and interpreted engines
// agree (Verify checks both).
func FuzzSynthSelfConsistency(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(60), uint8(80), uint8(50), uint8(50))
	f.Add(int64(42), uint8(3), uint8(100), uint8(100), uint8(100), uint8(100))
	f.Add(int64(-9), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, count, graftP, resampleP, subsetP, supersetP uint8) {
		opts := Options{
			Seed:            seed,
			Count:           int(count%3) + 1,
			GraftPercent:    int(graftP%100) + 1,
			ResamplePercent: int(resampleP%100) + 1,
			SubsetPercent:   int(subsetP%100) + 1,
			SupersetPercent: int(supersetP%100) + 1,
		}
		ws, err := Generate(opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		for i := range ws {
			if err := Verify(&ws[i]); err != nil {
				t.Errorf("opts %+v: %v", opts, err)
			}
		}
	})
}
