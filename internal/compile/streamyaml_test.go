package compile

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/object"
	"repro/internal/validator"
)

func TestScanRawYAMLMeta(t *testing.T) {
	const prologue = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: p\n  namespace: ns\n"
	prologueMeta := RawMeta{Kind: []byte("Pod"), APIVersion: []byte("v1"),
		Namespace: []byte("ns"), Name: []byte("p")}
	prog := prologuePolicy(t)
	if !prog.MatchRawYAML([]byte(prologue + "spec:\n  a: 1\n")) {
		t.Fatal("MatchRawYAML refused the clean prologue body")
	}
	cases := []struct {
		name string
		body string
		ok   bool
		want RawMeta
		// undecodable marks an ok row whose body ParseManifest rejects:
		// the scan read only the prologue, and MatchRawYAML must refuse it.
		undecodable bool
	}{
		{
			name: "plain manifest",
			body: "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: app\n  namespace: prod\ndata:\n  k: v\n",
			ok:   true,
			want: RawMeta{Kind: []byte("ConfigMap"), APIVersion: []byte("v1"),
				Namespace: []byte("prod"), Name: []byte("app")},
		},
		{
			name: "leading document marker and comments",
			body: "---\n# generated\nkind: Pod # inline\nmetadata:\n  name: p\n",
			ok:   true,
			want: RawMeta{Kind: []byte("Pod"), Name: []byte("p")},
		},
		{
			name: "quoted meta strings",
			body: "kind: \"Pod\"\nmetadata:\n  name: 'p'\n",
			ok:   true,
			want: RawMeta{Kind: []byte("Pod"), Name: []byte("p")},
		},
		{
			name: "non-string kind reads as absent",
			body: "kind: 12\nmetadata:\n  name: true\n",
			ok:   true,
			want: RawMeta{},
		},
		{
			name: "trailing terminator",
			body: "kind: Pod\n...\n",
			ok:   true,
			want: RawMeta{Kind: []byte("Pod")},
		},
		// A value on an indented continuation line decodes like an inline
		// one, so the scan must read it the same way.
		{
			name: "continuation-line kind",
			body: "kind:\n  Pod\n",
			ok:   true,
			want: RawMeta{Kind: []byte("Pod")},
		},
		{
			name: "continuation-line namespace and single-quoted name",
			body: "kind: Pod\nmetadata:\n  namespace:\n    b\n  name:\n    'n'\n",
			ok:   true,
			want: RawMeta{Kind: []byte("Pod"), Namespace: []byte("b"), Name: []byte("n")},
		},
		{
			name: "sequence under kind reads as absent",
			body: "kind:\n  - a\nmetadata:\n  name: p\n",
			ok:   true,
			want: RawMeta{Name: []byte("p")},
		},
		// Shape rows, the same on both wires (TestScanRawMeta).
		{name: "non-object metadata", body: "kind: Pod\nmetadata: 7\n", ok: true, want: RawMeta{Kind: []byte("Pod")}},
		{name: "sequence metadata", body: "kind: Pod\nmetadata:\n- name: p\n", ok: true, want: RawMeta{Kind: []byte("Pod")}},
		{
			name: "mapping-valued kind",
			body: "kind:\n  kind: Pod\nmetadata:\n  name: p\n",
			ok:   true,
			want: RawMeta{Name: []byte("p")},
		},
		{
			name: "non-string name",
			body: "kind: Pod\nmetadata:\n  name:\n    a: b\n  namespace: ns\n",
			ok:   true,
			want: RawMeta{Kind: []byte("Pod"), Namespace: []byte("ns")},
		},
		{name: "multi-document stream", body: "kind: Pod\n---\nkind: Secret\n"},
		{name: "duplicate key", body: "kind: Pod\nkind: Secret\n"},
		{name: "duplicate nested key", body: "kind: Pod\nmetadata:\n  name: a\n  name: b\n"},
		{name: "anchor", body: "kind: Pod\nspec: &a\n  x: 1\n"},
		{name: "alias value", body: "kind: Pod\nspec: *a\n"},
		{name: "tagged value", body: "kind: Pod\nspec: !!str x\n"},
		{name: "flow collection", body: "kind: Pod\nspec: {a: 1}\n"},
		{name: "block scalar", body: "kind: Pod\ndata: |\n  text\n"},
		{name: "quoted key", body: "\"kind\": Pod\n"},
		{name: "sequence root", body: "- kind: Pod\n"},
		{name: "scalar root", body: "just a string\n"},
		{name: "tab indentation", body: "kind: Pod\nspec:\n\tx: 1\n"},
		{name: "carriage returns", body: "kind: Pod\r\nmetadata:\r\n  name: p\r\n"},
		{name: "bad deeper indent", body: "kind: Pod\n  spec: x\n"},
		{name: "empty body", body: ""},
		{name: "ambiguous scalar type", body: "kind: Pod\nspec: 1e5\n"},
		// The scan stops at the first line at the root's indentation after
		// apiVersion, kind and metadata: what follows is the match's to
		// vouch for. Each of these is ok with the prologue's fields, and
		// none decodes.
		{name: "duplicate key in spec after the prologue", body: prologue + "spec:\n  a: 1\n  a: 1\n",
			ok: true, want: prologueMeta, undecodable: true},
		{name: "trailing bytes after the prologue", body: prologue + "spec:\n  a: 1\njunk\n",
			ok: true, want: prologueMeta, undecodable: true},
		{name: "second document after the prologue", body: prologue + "---\nkind: Secret\n",
			ok: true, want: prologueMeta, undecodable: true},
		{name: "over-indented line after metadata", body: prologue + " spec: x\n",
			ok: true, want: prologueMeta, undecodable: true},
		// A prologue still incomplete at the duplicate: the scan walks to
		// it and fails.
		{name: "kind after spec", body: "apiVersion: v1\nmetadata:\n  name: p\nspec:\n  a: 1\n  a: 1\nkind: Pod\n"},
		{name: "missing apiVersion", body: "kind: Pod\nmetadata:\n  name: p\nspec:\n  a: 1\n  a: 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, ok := ScanRawYAMLMeta([]byte(tc.body))
			if ok != tc.ok {
				t.Fatalf("ScanRawYAMLMeta ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				// The scan refused to vouch; parity with the decode path is
				// checked in the fuzz target, nothing to compare here.
				return
			}
			got := [4]string{string(m.Kind), string(m.APIVersion), string(m.Namespace), string(m.Name)}
			want := [4]string{string(tc.want.Kind), string(tc.want.APIVersion),
				string(tc.want.Namespace), string(tc.want.Name)}
			if got != want {
				t.Fatalf("scan meta %v, want %v", got, want)
			}
			if tc.undecodable && prog.MatchRawYAML([]byte(tc.body)) {
				t.Errorf("MatchRawYAML vouched for an undecodable body")
			}
			// The contract: a successful scan and a body that decodes mean
			// the fields equal the decoded accessors.
			o, err := object.ParseManifest([]byte(tc.body))
			if (err != nil) != tc.undecodable {
				t.Fatalf("ParseManifest error %v, want undecodable=%v", err, tc.undecodable)
			}
			if err != nil {
				return
			}
			if dec := [4]string{o.Kind(), o.APIVersion(), o.Namespace(), o.Name()}; got != dec {
				t.Fatalf("scan meta %v diverges from decoded accessors %v", got, dec)
			}
		})
	}
}

// TestMatchRawYAMLOnBenignCorpus requires the streaming YAML pass to
// decide the encoder-shaped benign corpus — the hot path the fast path
// exists for — and to agree with the decoded engines on every body.
func TestMatchRawYAMLOnBenignCorpus(t *testing.T) {
	cs, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	bodies, decided := 0, 0
	for _, c := range cs {
		for _, o := range c.benign {
			body, err := o.MarshalYAML()
			if err != nil {
				t.Fatal(err)
			}
			bodies++
			raw, fast, err := yamlWire.verdict(c.program, body)
			if err != nil {
				t.Fatalf("%s: %s/%s: %v", c.name, o.Kind(), o.Name(), err)
			}
			if fast {
				decided++
			}
			decoded, err := object.ParseManifest(body)
			if err != nil {
				t.Fatal(err)
			}
			want := c.policy.Validate(decoded)
			if !reflect.DeepEqual(raw, want) {
				t.Fatalf("%s: %s/%s: raw YAML pipeline diverges:\nraw:         %v\ninterpreted: %v",
					c.name, o.Kind(), o.Name(), raw, want)
			}
		}
	}
	if decided < bodies*9/10 {
		t.Errorf("streaming YAML pass decided only %d of %d benign bodies", decided, bodies)
	}
}

// TestMatchRawYAMLFallsBack pins constructs the scanner must never
// vouch for, even when the decoded document would be allowed.
func TestMatchRawYAMLFallsBack(t *testing.T) {
	cs, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	c := cs[0]
	var base object.Object
	for _, o := range c.benign {
		if o.Kind() == "ConfigMap" {
			base = o
			break
		}
	}
	if base == nil {
		t.Skip("corpus has no ConfigMap")
	}
	body, err := base.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	if !c.program.MatchRawYAML(body) {
		t.Fatalf("baseline benign body not vouched for:\n%s", body)
	}
	for name, mangle := range map[string]func(string) string{
		"second document":  func(s string) string { return s + "---\nkind: ConfigMap\n" },
		"windows newlines": func(s string) string { return strings.ReplaceAll(s, "\n", "\r\n") },
		"duplicate root key": func(s string) string {
			return s + "kind: ConfigMap\n"
		},
	} {
		if c.program.MatchRawYAML([]byte(mangle(string(body)))) {
			t.Errorf("%s: scanner vouched for a decode-path construct", name)
		}
	}
}

// TestYAMLRawPathEquivalenceOnRobustnessMatrix is replayMatrix on the
// YAML wire. As on the JSON wire, the vouched and the diagnosed sets are
// pinned exactly, not only floored.
func TestYAMLRawPathEquivalenceOnRobustnessMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-matrix YAML raw-path equivalence in -short smoke runs")
	}
	vouched, diagnosed := replayMatrix(t, yamlWire)
	if vouched != 46 {
		t.Errorf("the YAML walk vouched for %d bodies of the matrix, want exactly 46", vouched)
	}
	if diagnosed != 1568 {
		t.Errorf("the YAML walk diagnosed %d bodies of the matrix, want exactly 1568", diagnosed)
	}
}

// FuzzRawYAMLEquivalence is the differential fuzz target of the YAML
// streaming engine: for arbitrary bytes it asserts that whenever
// MatchRawYAML vouches for a body, object.ParseManifest accepts it and
// both decoded engines allow the decoded document, and that whenever the
// walk diagnoses a denial, its list is both engines' (checkDiagnosis) —
// against every builtin chart policy AND against a policy consolidated
// from the document itself. It also pins ScanRawYAMLMeta to the decoded
// accessors of every body that decodes.
func FuzzRawYAMLEquivalence(f *testing.F) {
	cs, err := loadCorpus()
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range cs {
		for i, o := range c.benign {
			if i >= 4 {
				break
			}
			data, err := o.MarshalYAML()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte("kind: Pod\nmetadata:\n  name: p\n  uid: u\nstatus:\n  x: 1\n"))
	f.Add([]byte("kind: Pod\nkind: Secret\nspec:\n  a: 1\n"))
	f.Add([]byte("---\nkind: Pod\n...\n"))
	f.Add([]byte("kind: Pod\n---\nkind: Secret\n"))
	f.Add([]byte("kind: Pod\nspec: &a\n  x: *a\n"))
	f.Add([]byte("kind: Pod\nspec:\n- a\n- - b\n- c: 1\n"))
	f.Add([]byte("kind: Pod\ndata: |\n  block\nother: 'qu''oted'\n"))
	f.Add([]byte("kind: \"Po\\u0064\"\nmeta: {a: [1, 2]}\n"))
	f.Add([]byte("kind: Pod # comment\nspec: # trailing\n  runAsUser: 9007199254740993\n"))
	f.Add([]byte("kind: Pod\nspec:\n  a: 1e5\n  b: 0x10\n  c: -007\n  d: .5\n"))
	// Routing fields on an indented continuation line.
	f.Add([]byte("kind:\n  Pod\n"))
	f.Add([]byte("kind: Pod\nmetadata:\n  namespace:\n    b\n  name:\n    'n'\n"))
	// A complete prologue before a line the decoder rejects: the scan is
	// ok, the body does not decode.
	f.Add([]byte("apiVersion: \nkind: \nmetadata:\n 0:\n00"))
	// Unicode white space the decoder trims: a namespace value ending in
	// U+00A0, and a metadata.labels key of the nginx Deployment repeated
	// with U+00A0 before its ':' (a duplicate key once trimmed).
	f.Add([]byte("apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: cm\n  namespace: b" + nbsp + "\ndata:\n  mode: lenient\n"))
	_, dep := nginxDeployment(f)
	body, err := dep.MarshalYAML()
	if err != nil {
		f.Fatal(err)
	}
	label := "    app.kubernetes.io/instance: rel\n"
	f.Add([]byte(strings.Replace(string(body), label, label+"    app.kubernetes.io/instance"+nbsp+": rel\n", 1)))
	// Denials the walk diagnoses, or must refuse to: keys out of order,
	// -0, a float, an unknown kind before a malformed tail, a duplicate
	// key after a violation, required resources filled with {}.
	f.Add([]byte("spec:\n  zz: 1\n  aa:\n  - true\nmetadata:\n  zz: null\n  name: n\n  aa: x\nkind: ConfigMap\napiVersion: v1\n"))
	f.Add([]byte("apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: -0\ndata:\n  k: -0\n"))
	f.Add([]byte("apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: n\ndata:\n  k: 1.0\n"))
	f.Add([]byte("apiVersion: v1\nkind: Nope\nmetadata: {}\nspec:\n  a: 1\n   b: 2\n"))
	f.Add([]byte("apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: n\nzz: 1\ndata:\n  a: 1\n  a: 2\n"))
	f.Add([]byte("apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: d\nspec:\n  template:\n    spec:\n      containers:\n      - name: c\n        resources: {}\n      - name: d\n        resources:\n          limits: {}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, metaOK := ScanRawYAMLMeta(data)
		o, perr := object.ParseManifest(data)
		// The scan reads the prologue only: whether the body decodes is
		// the match's to vouch for.
		if metaOK && perr == nil {
			if o.Kind() != string(meta.Kind) || o.APIVersion() != string(meta.APIVersion) ||
				o.Namespace() != string(meta.Namespace) || o.Name() != string(meta.Name) {
				t.Fatalf("ScanRawYAMLMeta %q/%q/%q/%q diverges from decoded %q/%q/%q/%q on %q",
					meta.Kind, meta.APIVersion, meta.Namespace, meta.Name,
					o.Kind(), o.APIVersion(), o.Namespace(), o.Name(), data)
			}
		}
		check := func(name string, pol *validator.Validator, prog *Program) {
			if !prog.MatchRawYAML(data) {
				checkDiagnosis(t, name, yamlWire, pol, prog, data, o, perr)
				return // fallback: the decode path rules, nothing to check
			}
			if perr != nil {
				t.Fatalf("%s: MatchRawYAML vouched for undecodable bytes %q: %v", name, data, perr)
			}
			if vs := prog.Validate(o); len(vs) != 0 {
				t.Fatalf("%s: MatchRawYAML vouched for a body the compiled engine denies:\ndoc: %q\nviolations: %v",
					name, data, vs)
			}
			if vs := pol.Validate(o); len(vs) != 0 {
				t.Fatalf("%s: MatchRawYAML vouched for a body the interpreted engine denies:\ndoc: %q\nviolations: %v",
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
