package yaml

import (
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// This file holds the plain-scalar typing as it was before scalar.go
// lexed it once for the decoder, the encoder and the decode-free walker:
// the decoder's plainScalar and the encoder's needsQuoting, moved here
// verbatim as the differential oracle of FuzzPlainScalar.

// referencePlainScalar applies YAML 1.2 core-schema-ish type resolution.
func referencePlainScalar(s string) any {
	switch s {
	case "", "~", "null", "Null", "NULL":
		return nil
	case "true", "True", "TRUE":
		return true
	case "false", "False", "FALSE":
		return false
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i
	}
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		if i, err := strconv.ParseInt(s[2:], 16, 64); err == nil {
			return i
		}
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		// Only treat as float when it looks numeric (avoid "1e" etc. —
		// ParseFloat already rejects those; also avoid versions like
		// "1.2.3" which ParseFloat rejects).
		return f
	}
	return s
}

// referenceNeedsQuoting reports whether a plain rendering of s would change meaning.
func referenceNeedsQuoting(s string) bool {
	switch s {
	case "true", "True", "TRUE", "false", "False", "FALSE", "null", "Null", "NULL", "~", "yes", "no", "on", "off":
		return true
	}
	if _, err := strconv.ParseInt(s, 10, 64); err == nil {
		return true
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return true
	}
	// Hex literals decode as integers (see plainScalar).
	if (strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X")) && len(s) > 2 {
		if _, err := strconv.ParseInt(s[2:], 16, 64); err == nil {
			return true
		}
	}
	if strings.ContainsAny(s, "\n\t\"'") {
		return true
	}
	// Control bytes (including DEL) would corrupt plain-scalar line
	// structure; force them into quoted form.
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] == 0x7f {
			return true
		}
	}
	if s[0] == ' ' || s[len(s)-1] == ' ' {
		return true
	}
	switch s[0] {
	case '-', '?', ':', ',', '[', ']', '{', '}', '#', '&', '*', '!', '|', '>', '\'', '"', '%', '@', '`':
		return true
	}
	if strings.Contains(s, ": ") || strings.HasSuffix(s, ":") || strings.Contains(s, " #") {
		return true
	}
	return false
}

// plainWords is testdata/plain_words.txt: plain scalars spelled with
// words, base prefixes and int64-edge digits.
func plainWords(tb testing.TB) []string {
	tb.Helper()
	data, err := os.ReadFile("testdata/plain_words.txt")
	if err != nil {
		tb.Fatal(err)
	}
	var words []string
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "#") {
			words = append(words, strings.Fields(line)...)
		}
	}
	return words
}

// plainAlphabet is the scalar enumerator's numeric alphabet (see
// internal/compile's TestRawWalkersReadScalarFormsAsTheDecoders).
var plainAlphabet = []string{"0", "1", "9", ".", "+", "-", "_", "e", "E", "x", "i", "n", "f"}

// FuzzPlainScalar holds the lexer to the reference on any string: a kind
// it proves is the reference's type (and a string is s itself), the
// decoder's value is the reference's, LexScalar types a plain-opened s
// as lexPlain does, and the encoder quotes s exactly as the reference
// did — or, where the reference dropped white space or a document end,
// at all — so that s decodes back from a map value, a map key, a list
// item and a document of its own.
func FuzzPlainScalar(f *testing.F) {
	for _, s := range plainAlphabet {
		f.Add(s)
	}
	for _, s := range plainWords(f) {
		f.Add(s)
	}
	for _, s := range []string{"0.0.0.0", "1.2.3", "-1.2.3e4", "1_000", "1e999", "0.5", "-0", "",
		"...", "---", "\u00a0x", "x\u00a0", "\u3000", "a #b", "a: b", "'q'", "[a]", "&a", "a[", "x}y"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k := lexPlain(s)
		want := referencePlainScalar(s)
		if !provesType(k, s, want) {
			t.Fatalf("%q: lexed as kind %d, the reference makes %T %v", s, k, want, want)
		}
		if got := plainScalar(s, k); !sameScalar(got, want) {
			t.Fatalf("%q: decodes to %T %v, the reference to %T %v", s, got, got, want, want)
		}
		if l := LexScalar(s); l.Kind >= ScalarNull && l.Kind != k {
			t.Fatalf("%q: LexScalar kind %d, lexPlain %d", s, l.Kind, k)
		}
		if s == "" {
			return // the encoder writes "" before it asks needsQuoting
		}
		quote, was := needsQuoting(s), referenceNeedsQuoting(s)
		if quote != was && !(quote && droppedPlain(s)) {
			t.Fatalf("%q: needsQuoting %v, the reference %v", s, quote, was)
		}
		checkRoundTrip(t, s)
	})
}

// provesType reports whether kind k, if a proven one, is the type of
// the reference's value v of s.
func provesType(k ScalarKind, s string, v any) bool {
	switch k {
	case ScalarNull:
		return v == nil
	case ScalarTrue:
		return v == true
	case ScalarFalse:
		return v == false
	case ScalarInt:
		_, ok := v.(int64)
		return ok
	case ScalarFloat:
		f, ok := v.(float64)
		return ok && !math.IsInf(f, 0) && !math.IsNaN(f)
	case ScalarString:
		return v == s
	}
	return k == ScalarUndecided
}

// sameScalar is == on decoded scalars, with NaN equal to NaN.
func sameScalar(a, b any) bool {
	if fa, ok := a.(float64); ok {
		if fb, ok := b.(float64); ok && math.IsNaN(fa) && math.IsNaN(fb) {
			return true
		}
	}
	return a == b
}

// droppedPlain reports whether the reference encoder wrote s plain and
// the decoder read it back as something else: s opens or ends with
// white space the decoder trims, or is a document end.
func droppedPlain(s string) bool {
	return s == "..." || strings.TrimFunc(s, unicode.IsSpace) != s
}

// checkRoundTrip holds Decode(Marshal(x)) to x where x is s as a map
// value, a map key (beside another, and nested), a list item and a
// document of its own.
func checkRoundTrip(t *testing.T, s string) {
	t.Helper()
	for _, doc := range []any{map[string]any{"k": s}, map[string]any{s: int64(1), "~k": int64(2)},
		map[string]any{"k": map[string]any{s: "v"}}, []any{s}, s} {
		out, err := Marshal(doc)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		back, err := Decode(out)
		if err != nil || !reflect.DeepEqual(back, doc) {
			t.Fatalf("%q encodes to %q, which decodes to %#v, %v", s, out, back, err)
		}
	}
}
