package yaml

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestDecodeScalars(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want any
	}{
		{"int", "x: 42", map[string]any{"x": int64(42)}},
		{"negative int", "x: -7", map[string]any{"x": int64(-7)}},
		{"float", "x: 3.14", map[string]any{"x": 3.14}},
		{"bool true", "x: true", map[string]any{"x": true}},
		{"bool false", "x: false", map[string]any{"x": false}},
		{"null word", "x: null", map[string]any{"x": nil}},
		{"null tilde", "x: ~", map[string]any{"x": nil}},
		{"null empty", "x:", map[string]any{"x": nil}},
		{"string", "x: hello", map[string]any{"x": "hello"}},
		{"string with spaces", "x: hello world", map[string]any{"x": "hello world"}},
		{"double quoted", `x: "0.0.0.0"`, map[string]any{"x": "0.0.0.0"}},
		{"double quoted escape", `x: "a\nb"`, map[string]any{"x": "a\nb"}},
		{"single quoted", `x: 'it''s'`, map[string]any{"x": "it's"}},
		{"quoted number stays string", `x: "42"`, map[string]any{"x": "42"}},
		{"version string", "x: 1.2.3", map[string]any{"x": "1.2.3"}},
		{"hex int", "x: 0x1f", map[string]any{"x": int64(31)}},
		{"image ref", "image: docker.io/bitnami/nginx:1.25.3", map[string]any{"image": "docker.io/bitnami/nginx:1.25.3"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Decode([]byte(tt.in))
			if err != nil {
				t.Fatalf("Decode(%q): %v", tt.in, err)
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Decode(%q) = %#v, want %#v", tt.in, got, tt.want)
			}
		})
	}
}

// TestDecodeFloatAllocatesOnlyItsValue: a proven float goes straight to
// strconv.ParseFloat, so decoding it allocates the interface that holds
// the float64 and nothing else: a failed ParseInt allocates its error
// and a copy of the input.
func TestDecodeFloatAllocatesOnlyItsValue(t *testing.T) {
	for _, s := range []string{"1.5", "-0.25", "123456789.123456789"} {
		k := lexPlain(s)
		if k != ScalarFloat {
			t.Fatalf("%q lexed as kind %d, want ScalarFloat", s, k)
		}
		var v any
		allocs := testing.AllocsPerRun(100, func() { v = plainScalar(s, k) })
		if f, ok := v.(float64); !ok || allocs > 1 {
			t.Errorf("%q decodes to %T %v with %.0f allocs, want a float64 and at most 1", s, v, v, allocs)
		} else if want, _ := strconv.ParseFloat(s, 64); f != want {
			t.Errorf("%q decodes to %v, want %v", s, f, want)
		}
	}
}

func TestDecodeNestedMapping(t *testing.T) {
	in := `
apiVersion: v1
kind: Pod
metadata:
  name: web
  labels:
    app: nginx
spec:
  replicas: 3
`
	got, err := Decode([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"apiVersion": "v1",
		"kind":       "Pod",
		"metadata": map[string]any{
			"name":   "web",
			"labels": map[string]any{"app": "nginx"},
		},
		"spec": map[string]any{"replicas": int64(3)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v, want %#v", got, want)
	}
}

func TestDecodeSequences(t *testing.T) {
	in := `
items:
- a
- b
nested:
  - name: first
    value: 1
  - name: second
    value: 2
matrix:
- - 1
  - 2
- - 3
`
	got, err := Decode([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	if want := []any{"a", "b"}; !reflect.DeepEqual(m["items"], want) {
		t.Errorf("items = %#v, want %#v", m["items"], want)
	}
	nested := m["nested"].([]any)
	if len(nested) != 2 {
		t.Fatalf("nested len = %d, want 2", len(nested))
	}
	first := nested[0].(map[string]any)
	if first["name"] != "first" || first["value"] != int64(1) {
		t.Errorf("first = %#v", first)
	}
	matrix := m["matrix"].([]any)
	if !reflect.DeepEqual(matrix[0], []any{int64(1), int64(2)}) {
		t.Errorf("matrix[0] = %#v", matrix[0])
	}
}

func TestDecodeSequenceAtKeyIndent(t *testing.T) {
	// K8s manifests commonly put list dashes at the same indent as the key.
	in := `
containers:
- name: web
  image: nginx
volumes:
- name: data
`
	got, err := Decode([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	cs := m["containers"].([]any)
	if cs[0].(map[string]any)["image"] != "nginx" {
		t.Errorf("containers = %#v", cs)
	}
}

func TestDecodeFlowCollections(t *testing.T) {
	tests := []struct {
		in   string
		want any
	}{
		{"x: []", map[string]any{"x": []any{}}},
		{"x: {}", map[string]any{"x": map[string]any{}}},
		{"x: [1, 2, 3]", map[string]any{"x": []any{int64(1), int64(2), int64(3)}}},
		{`x: [a, "b, c"]`, map[string]any{"x": []any{"a", "b, c"}}},
		{"x: {a: 1, b: two}", map[string]any{"x": map[string]any{"a": int64(1), "b": "two"}}},
		{"x: [{a: 1}, {b: 2}]", map[string]any{"x": []any{map[string]any{"a": int64(1)}, map[string]any{"b": int64(2)}}}},
		{"x: [[1], [2]]", map[string]any{"x": []any{[]any{int64(1)}, []any{int64(2)}}}},
		// A tab before a quote is white space, not part of a plain item.
		{"k: [\t\"a\"]", map[string]any{"k": []any{"a"}}},
		{"k: [1,\t'b c']", map[string]any{"k": []any{int64(1), "b c"}}},
		{"k: {a:\t\"b\"}", map[string]any{"k": map[string]any{"a": "b"}}},
	}
	for _, tt := range tests {
		got, err := Decode([]byte(tt.in))
		if err != nil {
			t.Fatalf("Decode(%q): %v", tt.in, err)
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Decode(%q) = %#v, want %#v", tt.in, got, tt.want)
		}
	}
}

func TestDecodeBlockScalars(t *testing.T) {
	in := `
literal: |
  line one
  line two
stripped: |-
  no trailing
folded: >
  joined
  words
config: |
  server {
    listen 80;
  }
`
	got, err := Decode([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	if m["literal"] != "line one\nline two\n" {
		t.Errorf("literal = %q", m["literal"])
	}
	if m["stripped"] != "no trailing" {
		t.Errorf("stripped = %q", m["stripped"])
	}
	if m["folded"] != "joined words\n" {
		t.Errorf("folded = %q", m["folded"])
	}
	if m["config"] != "server {\n  listen 80;\n}\n" {
		t.Errorf("config = %q", m["config"])
	}
}

func TestDecodeMultiDocument(t *testing.T) {
	in := `
kind: Pod
---
kind: Service
---
kind: ConfigMap
`
	docs, err := DecodeAll([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("len(docs) = %d, want 3", len(docs))
	}
	kinds := []string{"Pod", "Service", "ConfigMap"}
	for i, d := range docs {
		if d.(map[string]any)["kind"] != kinds[i] {
			t.Errorf("doc %d kind = %v, want %s", i, d, kinds[i])
		}
	}
}

func TestDecodeEmptyDocuments(t *testing.T) {
	docs, err := DecodeAll([]byte("---\n---\nkind: Pod\n"))
	if err != nil {
		t.Fatal(err)
	}
	// Leading "---" with nothing before produces one empty doc then Pod.
	if len(docs) != 2 {
		t.Fatalf("len(docs) = %d, want 2: %#v", len(docs), docs)
	}
	if docs[0] != nil {
		t.Errorf("docs[0] = %#v, want nil", docs[0])
	}
}

func TestDecodeComments(t *testing.T) {
	in := `
# The architecture to deploy.
# standalone or repl
postgresql:
  arch: standalone # standalone or repl
  replicas: 3
image:
  registry: docker.io
`
	v, comments, err := DecodeWithComments([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	if m["postgresql"].(map[string]any)["arch"] != "standalone" {
		t.Errorf("arch = %v", m["postgresql"])
	}
	if got := comments["postgresql.arch"]; got != "standalone or repl" {
		t.Errorf("comment for postgresql.arch = %q", got)
	}
	if got := comments["postgresql"]; !strings.Contains(got, "standalone or repl") {
		t.Errorf("comment for postgresql = %q", got)
	}
	if _, ok := comments["image.registry"]; ok {
		t.Errorf("image.registry should have no comment")
	}
}

func TestCommentBrokenByBlankLine(t *testing.T) {
	in := "# orphan comment\n\nkey: value\n"
	_, comments, err := DecodeWithComments([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := comments["key"]; ok {
		t.Errorf("blank line should break attachment, got %q", c)
	}
}

func TestDecodeQuotedKeys(t *testing.T) {
	in := `
"app.kubernetes.io/name": nginx
'literal:key': 1
`
	got, err := Decode([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	if m["app.kubernetes.io/name"] != "nginx" {
		t.Errorf("m = %#v", m)
	}
	if m["literal:key"] != int64(1) {
		t.Errorf("m = %#v", m)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"duplicate key", "a: 1\na: 2\n"},
		{"anchor unsupported", "a: &x 1\n"},
		{"alias unsupported", "a: *x\n"},
		{"bad flow", "a: [1, 2\n"},
		{"trailing garbage after flow", "a: [1] extra\n"},
		{"unterminated quote", `a: "oops`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode([]byte(tt.in)); err == nil {
				t.Errorf("Decode(%q) succeeded, want error", tt.in)
			}
		})
	}
}

// TestErrorsDoNotEchoAttackerSizedInput: a decode error reaches the 403
// body and the retained denial record of a request the proxy decodes, so
// the line, key or scalar it names is quoted in a bounded excerpt. A
// 4 MiB line must cost under 1 KiB of error, at every quoting site this
// table reaches; short inputs keep their full %q quoting.
func TestErrorsDoNotEchoAttackerSizedInput(t *testing.T) {
	big := strings.Repeat("x", 4<<20)
	for name, doc := range map[string]string{
		"expected mapping entry": "a: 1\n" + big + "\n",
		"duplicate key":          big + ": 1\n" + big + ": 2\n",
		"content after document": big + "\n" + big + "\n",
		"anchor":                 "a: &" + big + "\n",
		"unterminated quote":     "a: \"" + big + "\n",
		"trailing after flow":    "a: [1] " + big + "\n",
		"malformed flow mapping": "a: {" + big + "}\n",
		"dangling escape":        "a: \"" + big + "\\\"\n",
		"block scalar indicator": "a: |" + big + "\n",
	} {
		_, err := Decode([]byte(doc))
		if err == nil {
			t.Fatalf("%s: decoded", name)
		}
		if n := len(err.Error()); n >= 1024 {
			t.Errorf("%s: error is %d bytes, want < 1 KiB", name, n)
		}
	}
	_, err := Decode([]byte("a: 1\na: 2\n"))
	if err == nil || err.Error() != `yaml: line 2: duplicate key "a"` {
		t.Errorf("short duplicate key error = %v", err)
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Decode([]byte("ok: 1\nbad: &anchor v\n"))
	if err == nil {
		t.Fatal("want error")
	}
	var ye *Error
	if !asYAMLError(err, &ye) {
		t.Fatalf("error %T is not *Error", err)
	}
	if ye.Line != 2 {
		t.Errorf("line = %d, want 2", ye.Line)
	}
}

func asYAMLError(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

func TestEncodeDeterministic(t *testing.T) {
	v := map[string]any{
		"zeta":  1,
		"alpha": map[string]any{"b": true, "a": "x"},
		"list":  []any{map[string]any{"n": 1}, "s"},
	}
	first, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("non-deterministic encoding:\n%s\nvs\n%s", first, again)
		}
	}
	if !strings.HasPrefix(string(first), "alpha:") {
		t.Errorf("keys not sorted:\n%s", first)
	}
}

func TestRoundTrip(t *testing.T) {
	docs := []any{
		map[string]any{
			"apiVersion": "apps/v1",
			"kind":       "Deployment",
			"metadata":   map[string]any{"name": "web", "labels": map[string]any{"app": "nginx"}},
			"spec": map[string]any{
				"replicas": int64(3),
				"template": map[string]any{
					"spec": map[string]any{
						"containers": []any{
							map[string]any{
								"name":  "nginx",
								"image": "nginx:1.25",
								"ports": []any{map[string]any{"containerPort": int64(80)}},
								"securityContext": map[string]any{
									"runAsNonRoot":             true,
									"allowPrivilegeEscalation": false,
								},
							},
						},
						"emptyList": []any{},
						"emptyMap":  map[string]any{},
						"nothing":   nil,
						"pi":        3.5,
						"quoted":    "yes",
						"tricky":    "a: b",
						"newline":   "l1\nl2",
					},
				},
			},
		},
	}
	for _, doc := range docs {
		data, err := Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("decode of encoded doc failed: %v\n%s", err, data)
		}
		if !reflect.DeepEqual(back, doc) {
			t.Errorf("round trip mismatch:\nencoded:\n%s\ngot:  %#v\nwant: %#v", data, back, doc)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	// Property: any tree of maps/slices/scalars survives Marshal→Decode.
	f := func(seed int64) bool {
		doc := genValue(newRng(seed), 0)
		m, ok := doc.(map[string]any)
		if !ok {
			m = map[string]any{"v": doc}
		}
		data, err := Marshal(m)
		if err != nil {
			return false
		}
		back, err := Decode(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Tiny deterministic RNG for property tests (xorshift64).
type rng struct{ s uint64 }

func newRng(seed int64) *rng {
	u := uint64(seed)
	if u == 0 {
		u = 0x9e3779b97f4a7c15
	}
	return &rng{s: u}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

var genStrings = []string{
	"nginx", "a b", "0.0.0.0", "true-ish", "x:y", "with space ", " lead",
	"multi\nline", "it's", `quote"d`, "docker.io/bitnami/nginx", "1.2.3",
	"[]", "{}", "#hash", "- dash", "", "null", "42", "值",
}

func genValue(r *rng, depth int) any {
	if depth > 3 {
		return int64(r.intn(100))
	}
	switch r.intn(7) {
	case 0:
		return genStrings[r.intn(len(genStrings))]
	case 1:
		return int64(r.intn(10000) - 5000)
	case 2:
		return r.intn(2) == 0
	case 3:
		return nil
	case 4:
		return float64(r.intn(1000))/8 + 0.5
	case 5:
		n := r.intn(4)
		seq := make([]any, 0, n)
		for i := 0; i < n; i++ {
			seq = append(seq, genValue(r, depth+1))
		}
		return seq
	default:
		n := r.intn(4)
		m := make(map[string]any, n)
		for i := 0; i < n; i++ {
			m[genStrings[r.intn(len(genStrings))]+string(rune('a'+i))] = genValue(r, depth+1)
		}
		return m
	}
}

func TestMarshalAll(t *testing.T) {
	out, err := MarshalAll([]any{
		map[string]any{"kind": "Pod"},
		map[string]any{"kind": "Service"},
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := DecodeAll(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("len = %d, want 2\n%s", len(docs), out)
	}
}

func TestTrailingCommentStripped(t *testing.T) {
	got, err := Decode([]byte(`image: "nginx#latest" # the image`))
	if err != nil {
		t.Fatal(err)
	}
	if got.(map[string]any)["image"] != "nginx#latest" {
		t.Errorf("got %#v", got)
	}
}

// TestCommentAfterQuotes pins where a trailing comment starts after a
// quote, as YAML 1.2 reads it: a backslash inside double quotes escapes
// the byte after it, so `"a\\"` closes before its comment; a quote opens
// a quoted scalar only where a scalar starts, so in a plain scalar such
// as it's or a"b it is content and the comment after it is a comment.
func TestCommentAfterQuotes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want any
	}{
		{`k: "a\\" # note`, map[string]any{"k": `a\`}},
		{`- "a\\" # c`, []any{`a\`}},
		{`k: "a\\\" # b" # c`, map[string]any{"k": `a\" # b`}},
		{`k: "q\" # r" # s`, map[string]any{"k": `q" # r`}},
		{`k: it's # c`, map[string]any{"k": "it's"}},
		{`k: a"b # c`, map[string]any{"k": `a"b`}},
		{`- it's # c`, []any{"it's"}},
		{`k: don't "quote" me # c`, map[string]any{"k": `don't "quote" me`}},
		{`k: 'x # y' # z`, map[string]any{"k": "x # y"}},
		{`k: 'it''s # x' # y`, map[string]any{"k": "it's # x"}},
		{`- 'a # b'`, []any{"a # b"}},
		{`- - "a # b"`, []any{[]any{"a # b"}}},
		{`k: [a, 'b # c'] # d`, map[string]any{"k": []any{"a", "b # c"}}},
		{`k: [a,"b # c"]`, map[string]any{"k": []any{"a", "b # c"}}},
		{`k: {a: "b # c"} # d`, map[string]any{"k": map[string]any{"a": "b # c"}}},
		{`"k # 1": v # c`, map[string]any{"k # 1": "v"}},
	} {
		got, err := Decode([]byte(tc.in))
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Decode(%q) = %#v, %v; want %#v", tc.in, got, err, tc.want)
		}
	}
}

func TestDeeplyNestedManifest(t *testing.T) {
	in := `
apiVersion: apps/v1
kind: Deployment
spec:
  template:
    spec:
      initContainers:
        - name: busybox
          image: "busybox"
          command: ["ln", "-s", "/", "/mnt/data/symlink-door"]
          volumeMounts:
            - name: test-vol
              mountPath: /test
      containers:
        - name: my-container
          image: "nginx"
          volumeMounts:
            - mountPath: /test
              name: my-volume
              subPath: symlink-door
      volumes:
        - name: my-volume
          emptyDir: {}
`
	got, err := Decode([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	spec := got.(map[string]any)["spec"].(map[string]any)
	podSpec := spec["template"].(map[string]any)["spec"].(map[string]any)
	ics := podSpec["initContainers"].([]any)
	cmd := ics[0].(map[string]any)["command"].([]any)
	if len(cmd) != 4 || cmd[0] != "ln" {
		t.Errorf("command = %#v", cmd)
	}
	vm := podSpec["containers"].([]any)[0].(map[string]any)["volumeMounts"].([]any)[0].(map[string]any)
	if vm["subPath"] != "symlink-door" {
		t.Errorf("subPath = %v", vm["subPath"])
	}
	if ed, ok := podSpec["volumes"].([]any)[0].(map[string]any)["emptyDir"].(map[string]any); !ok || len(ed) != 0 {
		t.Errorf("emptyDir = %#v", podSpec["volumes"])
	}
}
