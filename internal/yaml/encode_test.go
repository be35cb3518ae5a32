package yaml

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// TestMarshalScalarShapes round-trips every scalar kind the encoder
// accepts: the encoded form must decode back to an equivalent value
// (integer widths normalize to int64, floats stay floats).
func TestMarshalScalarShapes(t *testing.T) {
	doc := map[string]any{
		"nil":     nil,
		"true":    true,
		"false":   false,
		"int":     42,
		"int32":   int32(-7),
		"int64":   int64(1 << 40),
		"uint":    uint(3),
		"uint32":  uint32(4),
		"uint64":  uint64(5),
		"f32":     float32(1.5),
		"f64":     2.25,
		"whole":   3.0, // must stay recognizable as a float on round trip
		"exp":     1e300,
		"str":     "plain",
		"empty":   "",
		"yesish":  "no", // YAML-boolean lookalike: must be quoted
		"numish":  "007",
		"hexish":  "0xff",
		"quoted":  "a\"b\\c",
		"escapes": "line1\nline2\ttab\rcr",
		"ctl":     "bell\x07del\x7f",
	}
	data, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("re-decoding %q: %v", data, err)
	}
	m := back.(map[string]any)
	want := map[string]any{
		"nil": nil, "true": true, "false": false,
		"int": int64(42), "int32": int64(-7), "int64": int64(1 << 40),
		"uint": int64(3), "uint32": int64(4), "uint64": int64(5),
		"f32": 1.5, "f64": 2.25, "whole": 3.0, "exp": 1e300,
		"str": "plain", "empty": "", "yesish": "no", "numish": "007",
		"hexish": "0xff", "quoted": `a"b\c`,
		"escapes": "line1\nline2\ttab\rcr", "ctl": "bell\x07del\x7f",
	}
	for k, w := range want {
		if got := m[k]; !reflect.DeepEqual(got, w) {
			t.Errorf("%s: round-tripped to %#v, want %#v", k, got, w)
		}
	}
}

// TestMarshalCollectionShapes covers the collection encodings: empty
// map/sequence, typed Go slices, nested sequences, and maps inside
// sequences (the dash-inline form).
func TestMarshalCollectionShapes(t *testing.T) {
	doc := map[string]any{
		"emptyMap": map[string]any{},
		"emptySeq": []any{},
		"strs":     []string{"a", "b"},
		"maps":     []map[string]any{{"k": 1}, {"k": 2}},
		"nested":   []any{[]any{1, 2}, map[string]any{"deep": []any{"x"}}},
	}
	data, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("re-decoding %q: %v", data, err)
	}
	m := back.(map[string]any)
	if v, ok := m["emptyMap"].(map[string]any); !ok || len(v) != 0 {
		t.Errorf("emptyMap round-tripped to %#v", m["emptyMap"])
	}
	if v, ok := m["emptySeq"].([]any); !ok || len(v) != 0 {
		t.Errorf("emptySeq round-tripped to %#v", m["emptySeq"])
	}
	if v := m["strs"]; !reflect.DeepEqual(v, []any{"a", "b"}) {
		t.Errorf("strs round-tripped to %#v", v)
	}
	if v := m["maps"]; !reflect.DeepEqual(v, []any{
		map[string]any{"k": int64(1)}, map[string]any{"k": int64(2)}}) {
		t.Errorf("maps round-tripped to %#v", v)
	}
	if v := m["nested"]; !reflect.DeepEqual(v, []any{
		[]any{int64(1), int64(2)}, map[string]any{"deep": []any{"x"}}}) {
		t.Errorf("nested round-tripped to %#v", v)
	}

	// Deterministic key ordering: two marshals are byte-identical.
	again, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Errorf("non-deterministic encoding:\n%q\n%q", data, again)
	}
}

// TestMarshalRejectsUnsupportedTypes: the encoder errors on values it
// cannot represent instead of emitting something undecodable, at the
// top level and nested inside collections.
func TestMarshalRejectsUnsupportedTypes(t *testing.T) {
	if _, err := Marshal(make(chan int)); err == nil {
		t.Error("chan should not encode")
	}
	if _, err := Marshal(map[string]any{"bad": struct{}{}}); err == nil {
		t.Error("nested struct should not encode")
	}
	if _, err := Marshal([]any{1, make(chan int)}); err == nil {
		t.Error("chan inside a sequence should not encode")
	}
	if _, err := MarshalAll([]any{map[string]any{"ok": 1}, make(chan int)}); err == nil {
		t.Error("MarshalAll should surface nested encode errors")
	}
}

// TestMarshalAllDocuments separates documents with --- and DecodeAll
// reads them back.
func TestMarshalAllDocuments(t *testing.T) {
	data, err := MarshalAll([]any{
		map[string]any{"a": 1},
		map[string]any{"b": "two"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "---") != 1 {
		t.Errorf("expected one separator:\n%s", data)
	}
	docs, err := DecodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("round-tripped %d documents, want 2", len(docs))
	}
}

// TestErrorFormatting pins the 1-based line diagnostics of decode
// errors.
func TestErrorFormatting(t *testing.T) {
	e := &Error{Line: 3, Msg: "boom"}
	if got := e.Error(); got != "yaml: line 3: boom" {
		t.Errorf("Error() = %q", got)
	}
	_, err := Decode([]byte("a: [1\nb: 2\n"))
	if err == nil {
		t.Fatal("unterminated flow sequence should error")
	}
}

// TestMarshalRoundTripsWhiteSpaceAndWords: every plain scalar of up to
// two symbols of the enumerator's alphabet, every word form of
// testdata/plain_words.txt and the document markers, alone and with each
// rune unicode.IsSpace reports before or after it, decodes back from the
// encoder's output as a map value, a map key, a list item and a document
// of its own. An encoder that quoted only ASCII spaces wrote U+00A0 "x"
// plain, which the decoder trims to "x", and "..." plain, which ends a
// document.
func TestMarshalRoundTripsWhiteSpaceAndWords(t *testing.T) {
	base := append([]string{"", "...", "---", "k"}, plainWords(t)...)
	for _, a := range plainAlphabet {
		base = append(base, a)
		for _, b := range plainAlphabet {
			base = append(base, a+b)
		}
	}
	var spaces []string
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if unicode.IsSpace(r) {
			spaces = append(spaces, string(r))
		}
	}
	var all []string
	for _, b := range base {
		all = append(all, b)
		for _, sp := range spaces {
			all = append(all, sp+b, b+sp)
		}
	}
	values, keys, items := map[string]any{}, map[string]any{}, []any{}
	for i, s := range all {
		values[strconv.Itoa(i)] = s
		keys[s] = int64(i)
		items = append(items, s)
	}
	for _, s := range all {
		checkDocument(t, s)
	}
	for _, doc := range []any{values, keys, items} {
		checkDocument(t, doc)
	}
	t.Logf("%d strings", len(all))
}

// checkDocument holds Decode(Marshal(doc)) to doc.
func checkDocument(t *testing.T, doc any) {
	t.Helper()
	out, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := Decode(out); err != nil || !reflect.DeepEqual(back, doc) {
		msg := fmt.Sprintf("%q does not decode back from %q: %#v, %v", doc, out, back, err)
		t.Fatal(msg[:min(len(msg), 500)])
	}
}

// TestMarshalQuotesKeysWithFlowIndicators: the line grammar counts
// brackets and braces across a plain key, so a key that holds one is
// quoted, at the top level and nested, and decodes back.
func TestMarshalQuotesKeysWithFlowIndicators(t *testing.T) {
	for _, k := range []string{"a[", "a]", "a{b", "x}", "a[0]", "{}x"} {
		checkDocument(t, map[string]any{k: int64(1), "b": int64(2)})
		checkDocument(t, map[string]any{"k": map[string]any{k: int64(1)}})
		checkDocument(t, []any{map[string]any{k: "v"}})
	}
	out, err := Marshal(map[string]any{"a[": int64(1), "b": int64(2)})
	if err != nil {
		t.Fatal(err)
	}
	if want := "\"a[\": 1\nb: 2\n"; string(out) != want {
		t.Errorf("Marshal = %q, want %q", out, want)
	}
}
