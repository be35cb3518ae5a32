package compile

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/object"
	"repro/internal/validator"
	"repro/internal/yaml"
)

// reversedKeys lists m's keys in reverse sorted order: the order no
// encoder of this module writes, so a walk that reports violations in
// wire order instead of diagNode's sorted order shows up.
func reversedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	return keys
}

// reversedJSON is json.Marshal with every object's keys in reverse order.
func reversedJSON(o object.Object) []byte {
	var b bytes.Buffer
	writeReversedJSON(&b, map[string]any(o))
	return b.Bytes()
}

func writeReversedJSON(b *bytes.Buffer, v any) {
	switch t := v.(type) {
	case map[string]any:
		b.WriteByte('{')
		for i, k := range reversedKeys(t) {
			if i > 0 {
				b.WriteByte(',')
			}
			writeReversedJSON(b, k)
			b.WriteByte(':')
			writeReversedJSON(b, t[k])
		}
		b.WriteByte('}')
	case []any:
		b.WriteByte('[')
		for i, item := range t {
			if i > 0 {
				b.WriteByte(',')
			}
			writeReversedJSON(b, item)
		}
		b.WriteByte(']')
	default:
		data, err := json.Marshal(t)
		if err != nil {
			panic(err)
		}
		b.Write(data)
	}
}

// reversedYAML is Object.MarshalYAML with every mapping's keys in
// reverse order: the encoder's layout, its scalar and key spellings
// borrowed from yaml.Marshal.
func reversedYAML(o object.Object) []byte {
	var b strings.Builder
	writeReversedYAML(&b, map[string]any(o), 0, false)
	return []byte(b.String())
}

// yamlSpelling is yaml.Marshal's spelling of a scalar, or with key set
// of a mapping key.
func yamlSpelling(v any, key bool) string {
	if key {
		v = map[string]any{v.(string): nil}
	}
	data, err := yaml.Marshal(v)
	if err != nil {
		panic(err)
	}
	s := strings.TrimSuffix(string(data), "\n")
	if key {
		s = strings.TrimSuffix(s, ": null")
	}
	return s
}

// inlineYAML is what the encoder writes after "key:" or "- " for a
// scalar or an empty collection, and false for a value it nests.
func inlineYAML(v any) (string, bool) {
	switch t := v.(type) {
	case map[string]any:
		return "{}", len(t) == 0
	case []any:
		return "[]", len(t) == 0
	}
	return yamlSpelling(v, false), true
}

func writeReversedYAML(b *strings.Builder, v any, indent int, inSeq bool) {
	pad := func(first bool) {
		if !first || !inSeq {
			b.WriteString(strings.Repeat(" ", indent))
		}
	}
	if s, ok := inlineYAML(v); ok {
		pad(true)
		b.WriteString(s + "\n")
		return
	}
	switch t := v.(type) {
	case map[string]any:
		for i, k := range reversedKeys(t) {
			pad(i == 0)
			b.WriteString(yamlSpelling(k, true) + ":")
			if s, ok := inlineYAML(t[k]); ok {
				b.WriteString(" " + s + "\n")
				continue
			}
			b.WriteString("\n")
			writeReversedYAML(b, t[k], indent+2, false)
		}
	case []any:
		for i, item := range t {
			pad(i == 0)
			b.WriteString("- ")
			if s, ok := inlineYAML(item); ok {
				b.WriteString(s + "\n")
				continue
			}
			writeReversedYAML(b, item, indent+2, true)
		}
	}
}

// TestReversedEncodersRoundTrip: the reversed encodings decode to the
// document they encode, so the matrix replays compare like with like.
func TestReversedEncodersRoundTrip(t *testing.T) {
	o := object.Object{
		"kind": "Pod", "apiVersion": "v1",
		"metadata": map[string]any{"name": "p", "labels": map[string]any{}},
		"spec": map[string]any{
			"b": []any{int64(1), "two", nil, true, 2.5, map[string]any{"y": "z", "x": []any{}}, []any{"n"}},
			"a": "needs: quoting", "c": "",
		},
	}
	for name, body := range map[string][]byte{"json": reversedJSON(o), "yaml": reversedYAML(o)} {
		parse := object.ParseJSON
		if name == "yaml" {
			parse = object.ParseManifest
		}
		got, err := parse(body)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, body)
		}
		if !reflect.DeepEqual(got, o) {
			t.Errorf("%s: round trip = %v, want %v\n%s", name, got, o, body)
		}
		if i, j := bytes.Index(body, []byte("spec")), bytes.Index(body, []byte("metadata")); i < 0 || j < 0 || i > j {
			t.Errorf("%s: keys not in reverse order:\n%s", name, body)
		}
	}
}

// checkDiagnosis is the fuzz targets' list-level check: whenever the
// walk diagnoses data — data decoded to o, or failed to with perr — the
// body decodes and the list reflect.DeepEquals both engines' on it. The
// walk judges a private copy that is overwritten before the comparison,
// so a violation string aliasing the body shows up as a divergence.
func checkDiagnosis(t *testing.T, name string, w rawWire, pol *validator.Validator, prog *Program,
	data []byte, o object.Object, perr error) {
	t.Helper()
	buf := append([]byte(nil), data...)
	meta, ok := w.scan(buf)
	if !ok {
		return
	}
	vs, decided := prog.JudgeRawScanned(meta, buf, w.yaml)
	if !decided || len(vs) == 0 {
		return
	}
	for i := range buf {
		buf[i] = '#'
	}
	if perr != nil {
		t.Fatalf("%s: the walk diagnosed undecodable bytes %q: %v", name, data, perr)
	}
	if want := prog.Validate(o); !reflect.DeepEqual(vs, want) {
		t.Fatalf("%s: the walk's diagnosis diverges from the compiled engine on %q:\nraw:      %v\ncompiled: %v",
			name, data, vs, want)
	}
	if want := pol.Validate(o); !reflect.DeepEqual(vs, want) {
		t.Fatalf("%s: the walk's diagnosis diverges from the interpreted engine on %q:\nraw:         %v\ninterpreted: %v",
			name, data, vs, want)
	}
}
