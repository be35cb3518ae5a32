package compile

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/object"
	"repro/internal/schema"
	"repro/internal/validator"
)

// buildProgram compiles a policy consolidated from one manifest object.
func buildProgram(t *testing.T, docs ...object.Object) (*validator.Validator, *Program) {
	t.Helper()
	pol, err := validator.Build(docs, validator.BuildOptions{Workload: "test"})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	return pol, prog
}

func TestScanRawMeta(t *testing.T) {
	for _, tc := range []struct {
		name                                 string
		body                                 string
		ok                                   bool
		kind, apiVersion, namespace, objName string
	}{
		{
			name: "typical object",
			body: `{"apiVersion":"v1","kind":"Pod","metadata":{"name":"p","namespace":"ns"},"spec":{}}`,
			ok:   true, kind: "Pod", apiVersion: "v1", namespace: "ns", objName: "p",
		},
		{
			name: "fields in any order, others skipped",
			body: ` { "spec" : {"a":[1,2,{"b":null}]} , "kind" : "Deployment" } `,
			ok:   true, kind: "Deployment",
		},
		{
			name: "non-string kind mirrors decoded accessor",
			body: `{"kind":123,"metadata":{"name":"x"}}`,
			ok:   true, objName: "x",
		},
		// Duplicate keys anywhere fail the scan: the decode path rejects
		// them, and a successful scan promises the body decodes.
		{name: "duplicate kind is undecodable", body: `{"kind":"Pod","kind":"Secret"}`},
		{name: "duplicate kind with non-string last is undecodable", body: `{"kind":"Pod","kind":[1]}`},
		{name: "duplicate metadata is undecodable", body: `{"metadata":{"namespace":"a"},"metadata":{"name":"n"}}`},
		{name: "duplicate nested metadata key is undecodable", body: `{"metadata":{"name":"a","name":"b"}}`},
		{name: "duplicate key in skipped subtree is undecodable", body: `{"kind":"Pod","spec":{"a":1,"a":2}}`},
		// Shape rows, the same on both wires (TestScanRawYAMLMeta).
		{name: "non-object metadata", body: `{"kind":"Pod","metadata":7}`, ok: true, kind: "Pod"},
		{name: "sequence metadata", body: `{"kind":"Pod","metadata":[{"name":"p"}]}`, ok: true, kind: "Pod"},
		{name: "mapping-valued kind", body: `{"kind":{"kind":"Pod"},"metadata":{"name":"p"}}`, ok: true, objName: "p"},
		{
			name: "non-string name",
			body: `{"kind":"Pod","metadata":{"name":{"a":"b"},"namespace":"ns"}}`,
			ok:   true, kind: "Pod", namespace: "ns",
		},
		{name: "array root", body: `[1]`},
		{name: "scalar root", body: `"x"`},
		{name: "malformed", body: `{"kind":`},
		{name: "trailing garbage", body: `{"kind":"Pod"} x`},
		{name: "escaped key is undecidable", body: `{"\u006bind":"Pod"}`},
		{name: "escaped kind value is undecidable", body: `{"kind":"P\u006fd"}`},
		{name: "overflowing number anywhere fails the scan", body: `{"kind":"Pod","a":1e999}`},
		{name: "control char in string", body: "{\"kind\":\"P\x01d\"}"},
		{name: "trailing comma", body: `{"kind":"Pod",}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, ok := ScanRawMeta([]byte(tc.body))
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				return
			}
			if got := string(m.Kind); got != tc.kind {
				t.Errorf("Kind = %q, want %q", got, tc.kind)
			}
			if got := string(m.APIVersion); got != tc.apiVersion {
				t.Errorf("APIVersion = %q, want %q", got, tc.apiVersion)
			}
			if got := string(m.Namespace); got != tc.namespace {
				t.Errorf("Namespace = %q, want %q", got, tc.namespace)
			}
			if got := string(m.Name); got != tc.objName {
				t.Errorf("Name = %q, want %q", got, tc.objName)
			}
			// The contract: a successful scan means the body decodes and
			// the fields equal the decoded accessors.
			o, err := object.ParseJSON([]byte(tc.body))
			if err != nil {
				t.Fatalf("scan ok but ParseJSON failed: %v", err)
			}
			if o.Kind() != string(m.Kind) || o.APIVersion() != string(m.APIVersion) ||
				o.Namespace() != string(m.Namespace) || o.Name() != string(m.Name) {
				t.Errorf("meta %q/%q/%q/%q diverges from decoded %q/%q/%q/%q",
					m.Kind, m.APIVersion, m.Namespace, m.Name,
					o.Kind(), o.APIVersion(), o.Namespace(), o.Name())
			}
		})
	}
}

// TestMatchRawAllowsBenignAndRefusesAttacks pins the one-sided contract
// on a hand-built policy: benign wire bodies are definitively allowed
// without decoding; everything else (violations, malformed JSON,
// undecidable constructs) falls back.
func TestMatchRawContract(t *testing.T) {
	manifest := object.Object{
		"apiVersion": "v1",
		"kind":       "Pod",
		"metadata":   map[string]any{"name": "web", "labels": map[string]any{"app": "web"}},
		"spec": map[string]any{
			"hostNetwork": false,
			"containers": []any{map[string]any{
				"name":  "c",
				"image": "docker.io/library/nginx:1.25",
				"ports": []any{map[string]any{"containerPort": int64(8080)}},
				"resources": map[string]any{
					"limits": map[string]any{"cpu": "100m", "memory": "128Mi"},
				},
			}},
		},
	}
	pol, prog := buildProgram(t, manifest)

	allowed := []string{
		`{"apiVersion":"v1","kind":"Pod","metadata":{"name":"web","labels":{"x":"y","n":1.5}},"spec":{"hostNetwork":false,"containers":[{"name":"c","image":"docker.io/library/nginx:1.25","ports":[{"containerPort":8080}],"resources":{"limits":{"cpu":"100m","memory":"128Mi"}}}]}}`,
		// Server-owned fields are scrubbed at the root and under metadata.
		`{"kind":"Pod","status":{"junk":[1,2]},"metadata":{"name":"web","uid":"u-1","resourceVersion":"9"},"spec":{"containers":[{"name":"c","image":"docker.io/library/nginx:1.25","resources":{"limits":{"cpu":"100m"}}}]}}`,
	}
	for _, body := range allowed {
		if !prog.MatchRaw([]byte(body)) {
			t.Errorf("MatchRaw refused a benign body:\n%s", body)
		}
	}

	fallback := []string{
		// Genuine violations.
		`{"kind":"Pod","spec":{"hostNetwork":true}}`,
		`{"kind":"Pod","spec":{"extraField":1}}`,
		`{"kind":"Secret","metadata":{"name":"s"}}`,
		`{"apiVersion":"v9","kind":"Pod"}`,
		// Required resources.limits missing or empty.
		`{"kind":"Pod","spec":{"containers":[{"name":"c","image":"docker.io/library/nginx:1.25"}]}}`,
		`{"kind":"Pod","spec":{"containers":[{"name":"c","image":"docker.io/library/nginx:1.25","resources":{"limits":{}}}]}}`,
		// Structural fallbacks.
		`{"kind":"Pod"`,
		`{"kind":"Pod"} trailing`,
		`not json`,
		`{"kind":"Pod","metadata":{"name":"abc"}}`,
	}
	for _, body := range fallback {
		if prog.MatchRaw([]byte(body)) {
			t.Errorf("MatchRaw allowed a body it must not vouch for:\n%s", body)
		}
	}

	// Every MatchRaw=true body must be allowed by both decoded engines.
	for _, body := range allowed {
		o, err := object.ParseJSON([]byte(body))
		if err != nil {
			t.Fatalf("allowed body does not decode: %v", err)
		}
		if vs := pol.Validate(o); len(vs) != 0 {
			t.Errorf("interpreted engine denies a MatchRaw-allowed body: %v", vs)
		}
		if vs := prog.Validate(o); len(vs) != 0 {
			t.Errorf("compiled engine denies a MatchRaw-allowed body: %v", vs)
		}
	}
}

// TestMatchRawDuplicateKeys pins the aligned duplicate-key stance of
// both pipeline halves: the decode path REJECTS documents that
// duplicate a key (last-writer-wins decoding would let an early
// occurrence smuggle a sibling value past the validator), and the raw
// fast pass must therefore never vouch for a body containing one.
func TestMatchRawDuplicateKeys(t *testing.T) {
	manifest := object.Object{
		"kind": "Pod",
		"spec": map[string]any{"replicas": int64(1), "hostNetwork": false},
	}
	_, prog := buildProgram(t, manifest)

	for _, body := range []string{
		// Even duplicate-but-identical occurrences are undecodable.
		`{"kind":"Pod","spec":{"replicas":1,"replicas":1}}`,
		`{"kind":"Pod","spec":{"replicas":1,"replicas":"evil"}}`,
		`{"kind":"Pod","spec":{"replicas":"evil","replicas":1}}`,
		// The smuggled sibling: a benign-looking first spec carries the
		// verdict for naive first-wins parsers, while the duplicate
		// carries hostNetwork for last-wins ones. Neither side of the
		// pipeline may accept the body.
		`{"kind":"Pod","spec":{"replicas":1},"spec":{"replicas":1,"hostNetwork":true}}`,
	} {
		if prog.MatchRaw([]byte(body)) {
			t.Errorf("MatchRaw vouched for a duplicate-key body:\n%s", body)
		}
		if _, err := object.ParseJSON([]byte(body)); err == nil {
			t.Errorf("ParseJSON accepted a duplicate-key body:\n%s", body)
		}
	}
}

// TestParseJSONRejectsSmuggledSibling is the regression test for the
// decode-path half of the duplicate-key divergence: before the decoder
// rejected duplicates, {"spec":{...benign...},"spec":{...hostile...}}
// validated as last-writer while first-wins consumers saw the benign
// spec. Now the body must fail to decode at all.
func TestParseJSONRejectsSmuggledSibling(t *testing.T) {
	body := []byte(`{"kind":"Pod","metadata":{"name":"web"},` +
		`"spec":{"hostNetwork":false},"spec":{"hostNetwork":true}}`)
	if _, err := object.ParseJSON(body); err == nil {
		t.Fatal("smuggled-sibling body decoded cleanly")
	}
	// The same document without the duplicate still decodes.
	clean := []byte(`{"kind":"Pod","metadata":{"name":"web"},"spec":{"hostNetwork":false}}`)
	o, err := object.ParseJSON(clean)
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind() != "Pod" {
		t.Fatalf("Kind = %q, want Pod", o.Kind())
	}
}

// TestMatchRawInt64Precision: the raw path must compare big integer
// literals exactly, agreeing with the UseNumber decode path.
func TestMatchRawInt64Precision(t *testing.T) {
	manifest := object.Object{
		"kind": "Pod",
		"spec": map[string]any{
			"securityContext": map[string]any{"runAsUser": int64(9007199254740993)},
		},
	}
	pol, prog := buildProgram(t, manifest)
	exact := `{"kind":"Pod","spec":{"securityContext":{"runAsUser":9007199254740993}}}`
	if !prog.MatchRaw([]byte(exact)) {
		t.Errorf("MatchRaw refused the exact int64 value")
	}
	neighbor := `{"kind":"Pod","spec":{"securityContext":{"runAsUser":9007199254740992}}}`
	if prog.MatchRaw([]byte(neighbor)) {
		t.Errorf("MatchRaw allowed the float53 neighbor of the pinned value")
	}
	o, err := object.ParseJSON([]byte(neighbor))
	if err != nil {
		t.Fatal(err)
	}
	if vs := pol.Validate(o); len(vs) == 0 {
		t.Errorf("interpreted engine allowed the neighbor — UseNumber normalization regressed")
	}
}

// TestMatchRawNumberEdges covers literals around the scanner's
// vouching bounds.
func TestMatchRawNumberEdges(t *testing.T) {
	manifest := object.Object{
		"kind": "Pod",
		"spec": map[string]any{"labels": map[string]any{"n": "x"}},
	}
	// Force spec.labels free-form so numbers of any shape land in an
	// opAny subtree (structure-only validation).
	pol, err := validator.Build([]object.Object{manifest}, validator.BuildOptions{
		Workload: "test", GeneralizeAny: []string{"spec.labels"},
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	for body, want := range map[string]bool{
		`{"kind":"Pod","spec":{"labels":{"n":123456789012345678}}}`:  true,  // 18 digits
		`{"kind":"Pod","spec":{"labels":{"n":1234567890123456789}}}`: false, // 19 digits: fall back
		`{"kind":"Pod","spec":{"labels":{"n":1.5e10}}}`:              true,  // 2-digit exponent
		`{"kind":"Pod","spec":{"labels":{"n":1e999}}}`:               false, // decode path rejects
		`{"kind":"Pod","spec":{"labels":{"n":0.25}}}`:                true,
		`{"kind":"Pod","spec":{"labels":{"n":01}}}`:                  false, // leading zero
		`{"kind":"Pod","spec":{"labels":{"n":-0.5}}}`:                true,
	} {
		if got := prog.MatchRaw([]byte(body)); got != want {
			t.Errorf("MatchRaw(%s) = %v, want %v", body, got, want)
		}
	}
}

func TestRawLiteralMatchersAgreeWithTypeMatches(t *testing.T) {
	// The byte grammars must equal validator.TypeMatches' regexes on
	// string-rendered values.
	samples := []string{
		"0", "-1", "123", "1.5", "-2.75", "1.", ".5", "1e3", "",
		"true", "false", "True", "10.0.0.1", "256.1.1.1", "1.2.3",
		"10.0.0.1.2", "a", "12a", "999.999.999.999", "1234.0.0.1",
	}
	for _, s := range samples {
		seg := []byte(s)
		type pair struct {
			tok string
			raw bool
		}
		for _, p := range []pair{
			{schema.TokInt, rawIntLiteral(seg)},
			{schema.TokFloat, rawFloatLiteral(seg)},
			{schema.TokIP, rawIPLiteral(seg)},
		} {
			if want := validator.TypeMatches(p.tok, s); p.raw != want {
				t.Errorf("raw %s matcher on %q = %v, TypeMatches = %v", p.tok, s, p.raw, want)
			}
		}
	}
}

// TestMatchRawAllocFree: the fast pass over a realistic body must not
// allocate (the entire point of the streaming pipeline).
func TestMatchRawAllocFree(t *testing.T) {
	cs, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	prog := cs[0].program
	for _, o := range cs[0].benign {
		data, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		if prog.MatchRaw(data) {
			bodies = append(bodies, data)
		}
	}
	if len(bodies) == 0 {
		t.Fatal("no benign body of the first chart passes the raw fast pass")
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, b := range bodies {
			if !prog.MatchRaw(b) {
				t.Fatal("verdict changed between runs")
			}
		}
	})
	if perBody := avg / float64(len(bodies)); perBody > 0.5 {
		t.Errorf("MatchRaw allocates %.2f allocs per body, want 0", perBody)
	}
}

func TestCompareBytesString(t *testing.T) {
	cases := [][2]string{
		{"", ""}, {"a", ""}, {"", "a"}, {"abc", "abd"}, {"abc", "abc"},
		{"abc", "ab"}, {"ab", "abc"}, {"z", "a"},
	}
	for _, c := range cases {
		want := bytes.Compare([]byte(c[0]), []byte(c[1]))
		if got := compareBytesString([]byte(c[0]), c[1]); got != want {
			t.Errorf("compareBytesString(%q, %q) = %d, want %d", c[0], c[1], got, want)
		}
	}
}
