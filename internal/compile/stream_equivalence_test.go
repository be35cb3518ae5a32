package compile

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/mutate"
	"repro/internal/object"
	"repro/internal/validator"
)

// rawWire is one wire of the raw pipeline, for the replays below.
type rawWire struct {
	yaml bool
}

var jsonWire, yamlWire = rawWire{}, rawWire{yaml: true}

func (w rawWire) String() string {
	if w.yaml {
		return "yaml"
	}
	return "json"
}

// encode writes o on the wire with its keys in the encoder's sorted
// order, or in reverse order when reversed.
func (w rawWire) encode(o object.Object, reversed bool) ([]byte, error) {
	switch {
	case reversed && w.yaml:
		return reversedYAML(o), nil
	case reversed:
		return reversedJSON(o), nil
	case w.yaml:
		return o.MarshalYAML()
	}
	return json.Marshal(o)
}

func (w rawWire) scan(body []byte) (RawMeta, bool) {
	if w.yaml {
		return ScanRawYAMLMeta(body)
	}
	return ScanRawMeta(body)
}

func (w rawWire) parse(body []byte) (object.Object, error) {
	if w.yaml {
		return object.ParseManifest(body)
	}
	return object.ParseJSON(body)
}

// verdict runs the full raw-bytes admission pipeline on wire bytes,
// exactly what the enforcement point does per request: the judging walk
// first, decode + compiled Validate when it is undecided. decided
// reports whether the walk judged the body.
func (w rawWire) verdict(prog *Program, body []byte) (vs []validator.Violation, decided bool, err error) {
	if meta, ok := w.scan(body); ok {
		if vs, decided := prog.JudgeRawScanned(meta, body, w.yaml); decided {
			return vs, true, nil
		}
	}
	o, err := w.parse(body)
	if err != nil {
		return nil, false, err
	}
	return prog.Validate(o), false, nil
}

// replayMatrix replays every scenario of the full adversarial robustness
// matrix — plus the benign traces — through one wire's raw pipeline, each
// body encoded with its keys in sorted order and again in reverse order,
// requiring verdicts AND violation lists identical to both the compiled
// and the interpreted engine on the decoded document, and that the walk
// never vouches for a body the engines deny. It counts, over the sorted
// encodings, the bodies the walk vouched for and those it diagnosed; the
// reversed encodings must be judged alike.
func replayMatrix(t *testing.T, w rawWire) (vouched, diagnosed int) {
	t.Helper()
	cs, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, reversedVouched, reversedDiagnosed := 0, 0, 0
	for _, c := range cs {
		check := func(label string, o object.Object) {
			for _, reversed := range []bool{false, true} {
				body, err := w.encode(o, reversed)
				if err != nil {
					t.Fatal(err)
				}
				decoded, err := w.parse(body)
				if err != nil {
					t.Fatalf("%s: %s (reversed=%v): wire body does not decode: %v\n%s", c.name, label, reversed, err, body)
				}
				in := c.policy.Validate(decoded)
				comp := c.program.Validate(decoded)
				if !reflect.DeepEqual(in, comp) {
					t.Fatalf("%s: %s: decoded engines diverge:\ninterpreted: %v\ncompiled:    %v",
						c.name, label, in, comp)
				}
				raw, decided, err := w.verdict(c.program, body)
				if err != nil {
					t.Fatalf("%s: %s (reversed=%v): raw pipeline decode error the engines did not see: %v",
						c.name, label, reversed, err)
				}
				if !reflect.DeepEqual(raw, in) {
					t.Fatalf("%s: %s (reversed=%v): raw pipeline diverges:\nraw:         %v\ninterpreted: %v\n%s",
						c.name, label, reversed, raw, in, body)
				}
				if !decided {
					continue
				}
				switch {
				case len(raw) == 0 && reversed:
					reversedVouched++
				case len(raw) == 0:
					vouched++
				case reversed:
					reversedDiagnosed++
				default:
					diagnosed++
				}
			}
		}
		for _, o := range c.benign {
			check("benign "+o.Kind()+"/"+o.Name(), o)
		}
		scs, err := mutate.ForCatalog(c.benign, mutate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			scenarios++
			check("scenario "+sc.ID, sc.Object)
			if sc.OmitBodyNamespace {
				alt := sc.Object.DeepCopy()
				if md, ok := alt["metadata"].(map[string]any); ok {
					delete(md, "namespace")
				}
				check("scenario "+sc.ID+" (namespace stripped)", alt)
			}
		}
	}
	if scenarios < 1555 {
		t.Errorf("robustness matrix shrank: %d scenarios, want >= 1555", scenarios)
	}
	if reversedVouched != vouched || reversedDiagnosed != diagnosed {
		t.Errorf("key order changed what the walk judges: sorted %d vouched / %d diagnosed, reversed %d / %d",
			vouched, diagnosed, reversedVouched, reversedDiagnosed)
	}
	t.Logf("raw-path equivalence held on %d attack scenarios in both key orders (%d vouched, %d diagnosed)",
		scenarios, vouched, diagnosed)
	return vouched, diagnosed
}

// TestRawPathEquivalenceOnRobustnessMatrix is replayMatrix on the JSON
// wire. The benign corpus is the allowed-request hot path; the walk must
// vouch for (nearly) all of it without decoding, or the streaming
// pipeline is dead weight. The fuzzers only prove "vouch ⇒ decoded
// allow", so this is also what fails when a change vouches for less: the
// count over the 1945 scenarios + 50 benign bodies is pinned exactly.
// Raising it is ROADMAP item 4(b)'s job; lowering it needs a stated
// reason. The diagnosed count is pinned the same way: it is the share of
// the attacks answered without a decode.
func TestRawPathEquivalenceOnRobustnessMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-matrix raw-path equivalence in -short smoke runs")
	}
	vouched, diagnosed := replayMatrix(t, jsonWire)
	if vouched != 49 {
		t.Errorf("the walk vouched for %d bodies of the matrix, want exactly 49", vouched)
	}
	if diagnosed != 2020 {
		t.Errorf("the walk diagnosed %d bodies of the matrix, want exactly 2020", diagnosed)
	}
}

// FuzzRawEquivalence is the differential fuzz target of the streaming
// engine: for arbitrary raw bytes it asserts that whenever MatchRaw
// vouches for a body, the decode path accepts it and both decoded
// engines allow the decoded document, and that whenever the walk
// diagnoses a denial, its list is both engines' (checkDiagnosis) —
// against every builtin chart policy AND against a policy consolidated
// from the document itself.
// It also pins ScanRawMeta to the decoded accessors of every body that
// decodes.
func FuzzRawEquivalence(f *testing.F) {
	cs, err := loadCorpus()
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range cs {
		for i, o := range c.benign {
			if i >= 4 {
				break
			}
			data, err := json.Marshal(o)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"kind":"Pod","status":{"x":1},"metadata":{"uid":"u","name":"p"}}`))
	f.Add([]byte(`{"kind":"Pod","kind":"Secret","spec":{"a":1,"a":2}}`))
	f.Add([]byte(`{"kind":"Pod","spec":{"runAsUser":9007199254740993}}`))
	f.Add([]byte(`{"kind":"Pod","metadata":{"labels":{"a":1e999}}}`))
	f.Add([]byte(`{"kind":"Pod","spec":{"x":"A\ud800"}}`))
	f.Add([]byte(`{"kind":"Pod","spec":{"containers":[{"resources":{"limits":{}}}]}}`))
	f.Add([]byte(` { "kind" : "Deployment" , "apiVersion" : "apps/v1" } junk`))
	// A complete prologue in an unterminated root: the scan is ok, the
	// body does not decode.
	f.Add([]byte(`{"apiVersion":"","kind":"","metadata":{}`))
	// Denials the walk diagnoses, or must refuse to: keys out of order,
	// -0, a float, an unknown kind before a malformed tail, a duplicate
	// key after a violation, required resources filled with {}.
	f.Add([]byte(`{"spec":{"zz":1,"aa":[true]},"metadata":{"zz":null,"name":"n","aa":"x"},"kind":"ConfigMap","apiVersion":"v1"}`))
	f.Add([]byte(`{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":-0},"data":{"k":-0}}`))
	f.Add([]byte(`{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"n"},"data":{"k":1.0}}`))
	f.Add([]byte(`{"apiVersion":"v1","kind":"Nope","metadata":{},"spec":{"a":1,}`))
	f.Add([]byte(`{"apiVersion":"v1","kind":"ConfigMap","metadata":{"name":"n"},"zz":1,"data":{"a":1,"a":2}}`))
	f.Add([]byte(`{"apiVersion":"apps/v1","kind":"Deployment","metadata":{"name":"d"},"spec":{"template":{"spec":{"containers":[{"name":"c","resources":{}},{"name":"d","resources":{"limits":{}}}]}}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, metaOK := ScanRawMeta(data)
		o, perr := object.ParseJSON(data)
		// The scan reads the prologue only: whether the body decodes is
		// the match's to vouch for.
		if metaOK && perr == nil {
			if o.Kind() != string(meta.Kind) || o.APIVersion() != string(meta.APIVersion) ||
				o.Namespace() != string(meta.Namespace) || o.Name() != string(meta.Name) {
				t.Fatalf("ScanRawMeta %q/%q/%q/%q diverges from decoded %q/%q/%q/%q on %q",
					meta.Kind, meta.APIVersion, meta.Namespace, meta.Name,
					o.Kind(), o.APIVersion(), o.Namespace(), o.Name(), data)
			}
		}
		check := func(name string, pol *validator.Validator, prog *Program) {
			allowed := prog.MatchRaw(data)
			if !allowed {
				checkDiagnosis(t, name, jsonWire, pol, prog, data, o, perr)
				return // fallback: the decode path rules, nothing to check
			}
			if perr != nil {
				t.Fatalf("%s: MatchRaw vouched for undecodable bytes %q: %v", name, data, perr)
			}
			if vs := prog.Validate(o); len(vs) != 0 {
				t.Fatalf("%s: MatchRaw vouched for a body the compiled engine denies:\ndoc: %q\nviolations: %v",
					name, data, vs)
			}
			if vs := pol.Validate(o); len(vs) != 0 {
				t.Fatalf("%s: MatchRaw vouched for a body the interpreted engine denies:\ndoc: %q\nviolations: %v",
					name, data, vs)
			}
		}
		for _, c := range cs {
			check(c.name, c.policy, c.program)
		}
		if perr != nil || o.Kind() == "" {
			return
		}
		pol, err := validator.Build([]object.Object{o}, validator.BuildOptions{Workload: "fuzz"})
		if err != nil {
			return
		}
		prog, err := Compile(pol)
		if err != nil {
			return
		}
		check("self-derived", pol, prog)
	})
}
