package compile

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/mutate"
	"repro/internal/object"
	"repro/internal/validator"
)

// rawVerdict runs the full raw-bytes admission pipeline on wire bytes:
// streaming fast pass first, decode + compiled diagnostic pass on
// fallback — exactly what the enforcement point does per request. The
// bool reports whether the fast pass decided (for coverage accounting).
func rawVerdict(prog *Program, body []byte) ([]validator.Violation, bool, error) {
	if prog.MatchRaw(body) {
		return nil, true, nil
	}
	o, err := object.ParseJSON(body)
	if err != nil {
		return nil, false, err
	}
	return prog.Validate(o), false, nil
}

// TestRawPathEquivalenceOnRobustnessMatrix replays every scenario of
// the full adversarial robustness matrix — plus the benign traces —
// through the raw-bytes pipeline on wire-encoded bodies, requiring
// verdicts AND violation lists identical to both the compiled and the
// interpreted engine on the decoded document. It also requires the
// streaming fast pass to actually decide the benign traffic (the whole
// point), and never to vouch for an attack.
func TestRawPathEquivalenceOnRobustnessMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-matrix raw-path equivalence in -short smoke runs")
	}
	cs, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, benign, fastDecided := 0, 0, 0
	for _, c := range cs {
		check := func(label string, o object.Object) {
			body, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := object.ParseJSON(body)
			if err != nil {
				t.Fatalf("%s: %s: wire body does not decode: %v", c.name, label, err)
			}
			in := c.policy.Validate(decoded)
			comp := c.program.Validate(decoded)
			if !reflect.DeepEqual(in, comp) {
				t.Fatalf("%s: %s: decoded engines diverge:\ninterpreted: %v\ncompiled:    %v",
					c.name, label, in, comp)
			}
			raw, decided, err := rawVerdict(c.program, body)
			if err != nil {
				t.Fatalf("%s: %s: raw pipeline decode error the engines did not see: %v",
					c.name, label, err)
			}
			if decided {
				fastDecided++
				if len(in) != 0 {
					t.Fatalf("%s: %s: streaming fast pass vouched for a body the engines deny: %v",
						c.name, label, in)
				}
			}
			if !reflect.DeepEqual(raw, in) {
				t.Fatalf("%s: %s: raw pipeline diverges:\nraw:         %v\ninterpreted: %v",
					c.name, label, raw, in)
			}
		}
		for _, o := range c.benign {
			benign++
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
	// The benign corpus is the allowed-request hot path; the fast pass
	// must decide (nearly) all of it without decoding, or the streaming
	// pipeline is dead weight. The fuzzers only prove "vouch ⇒ decoded
	// allow", so this is also what fails when a change vouches for less:
	// the count over the 1945 scenarios + 50 benign bodies is pinned
	// exactly. Raising it is ROADMAP item 2(b)'s job; lowering it needs a
	// stated reason.
	if fastDecided != 49 {
		t.Errorf("streaming fast pass decided %d bodies of the matrix, want exactly 49", fastDecided)
	}
	t.Logf("raw-path equivalence held on %d attack scenarios + %d benign objects (%d fast-pass decisions)",
		scenarios, benign, fastDecided)
}

// FuzzRawEquivalence is the differential fuzz target of the streaming
// engine: for arbitrary raw bytes it asserts that whenever MatchRaw
// vouches for a body, the decode path accepts it and both decoded
// engines allow the decoded document — against every builtin chart
// policy AND against a policy consolidated from the document itself.
// It also pins ScanRawMeta to the decoded accessors.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, metaOK := ScanRawMeta(data)
		o, perr := object.ParseJSON(data)
		if metaOK {
			if perr != nil {
				t.Fatalf("ScanRawMeta ok but ParseJSON failed on %q: %v", data, perr)
			}
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
