package compile

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/core"
	"repro/internal/mutate"
	"repro/internal/object"
	"repro/internal/validator"
)

// corpus pairs one workload's policy (both engine forms) with its
// benign rendered objects.
type corpus struct {
	name    string
	policy  *validator.Validator
	program *Program
	benign  []object.Object
}

var (
	corpusOnce sync.Once
	corpusData []corpus
	corpusErr  error
)

// loadCorpus generates every builtin chart's policy once per test
// process; policy generation explores the configuration space and is
// too slow to repeat per subtest or fuzz iteration.
func loadCorpus() ([]corpus, error) {
	corpusOnce.Do(func() {
		for _, name := range charts.Names() {
			res, err := core.GeneratePolicy(charts.MustLoad(name), core.Options{})
			if err != nil {
				corpusErr = err
				return
			}
			prog, err := Compile(res.Validator)
			if err != nil {
				corpusErr = err
				return
			}
			c, err := charts.Load(name)
			if err != nil {
				corpusErr = err
				return
			}
			files, err := c.Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: name})
			if err != nil {
				corpusErr = err
				return
			}
			corpusData = append(corpusData, corpus{
				name:    name,
				policy:  res.Validator,
				program: prog,
				benign:  chart.Objects(files),
			})
		}
	})
	return corpusData, corpusErr
}

// diff compares both engines on one object and reports a mismatch.
func diff(policy *validator.Validator, program *Program, o object.Object) (interpreted, compiled []validator.Violation, same bool) {
	interpreted = policy.Validate(o)
	compiled = program.Validate(o)
	return interpreted, compiled, reflect.DeepEqual(interpreted, compiled)
}

// TestCompiledEquivalenceOnRobustnessMatrix replays every scenario of
// the full (un-reduced) adversarial robustness matrix — all mutation
// classes over every builtin chart — plus the benign traces through
// both validation engines and requires identical verdicts AND identical
// violation lists (paths, reasons, rendered values, order).
func TestCompiledEquivalenceOnRobustnessMatrix(t *testing.T) {
	// Cheap enough for the PR path (corpus generation plus the full
	// dual-engine replay is ~1s, a few seconds under -race); -short
	// skips it only to keep smoke loops minimal.
	if testing.Short() {
		t.Skip("skipping full-matrix equivalence in -short smoke runs")
	}
	cs, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, benign, attacksBlocked := 0, 0, 0
	for _, c := range cs {
		for _, o := range c.benign {
			benign++
			in, out, same := diff(c.policy, c.program, o)
			if !same {
				t.Fatalf("%s: engines diverge on benign %s/%s:\ninterpreted: %v\ncompiled:    %v",
					c.name, o.Kind(), o.Name(), in, out)
			}
			if len(out) != 0 {
				t.Fatalf("%s: benign %s/%s denied: %v", c.name, o.Kind(), o.Name(), out)
			}
		}
		scs, err := mutate.ForCatalog(c.benign, mutate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			scenarios++
			in, out, same := diff(c.policy, c.program, sc.Object)
			if !same {
				t.Fatalf("%s: engines diverge on scenario %s (%s):\ninterpreted: %v\ncompiled:    %v",
					c.name, sc.ID, sc.Class, in, out)
			}
			if len(out) > 0 {
				attacksBlocked++
			}
			// The replay harness also strips metadata.namespace for
			// verb-routing scenarios; cover that body form too.
			if sc.OmitBodyNamespace {
				alt := sc.Object.DeepCopy()
				if md, ok := alt["metadata"].(map[string]any); ok {
					delete(md, "namespace")
				}
				if in, out, same := diff(c.policy, c.program, alt); !same {
					t.Fatalf("%s: engines diverge on namespace-stripped scenario %s:\ninterpreted: %v\ncompiled:    %v",
						c.name, sc.ID, in, out)
				}
			}
		}
	}
	// The full five-chart robustness matrix is 1555 attack scenarios;
	// the matrix only ever grows.
	if scenarios < 1555 {
		t.Errorf("robustness matrix shrank: %d scenarios, want >= 1555", scenarios)
	}
	t.Logf("equivalence held on %d attack scenarios + %d benign objects (%d attacks denied by both engines)",
		scenarios, benign, attacksBlocked)
}

// TestCompiledEquivalenceVerdictsMatchReplayGroundTruth spot-checks that
// the compiled engine preserves the robustness ground truth at the
// validator level: benign objects pass, and per-chart FN counts match
// the interpreted engine exactly (0 FN / 0 FP is asserted end to end by
// the robustness experiment; here we pin engine agreement per chart).
func TestCompiledEquivalenceVerdictsMatchReplayGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping ground-truth agreement check in -short smoke runs")
	}
	cs, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		scs, err := mutate.ForCatalog(c.benign, mutate.Options{MaxPerAttackClass: 1})
		if err != nil {
			t.Fatal(err)
		}
		var fnInterp, fnCompiled int
		for _, sc := range scs {
			if len(c.policy.Validate(sc.Object)) == 0 {
				fnInterp++
			}
			if len(c.program.Validate(sc.Object)) == 0 {
				fnCompiled++
			}
		}
		if fnInterp != fnCompiled {
			t.Errorf("%s: engines disagree on false negatives: interpreted %d, compiled %d",
				c.name, fnInterp, fnCompiled)
		}
	}
}
