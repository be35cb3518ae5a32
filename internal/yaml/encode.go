package yaml

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// encodeNode writes v at the given indentation level. inSeq marks that the
// first line's indentation has already been emitted by a sequence dash.
func encodeNode(b *strings.Builder, v any, indent int, inSeq bool) error {
	if s, ok := inline(v); ok {
		if !inSeq {
			writeIndent(b, indent)
		}
		b.WriteString(s)
		b.WriteByte('\n')
		return nil
	}
	switch t := v.(type) {
	case map[string]any:
		return encodeMap(b, t, indent, inSeq)
	case []any:
		return encodeSeq(b, t, indent, inSeq)
	case []string:
		seq := make([]any, len(t))
		for i, s := range t {
			seq[i] = s
		}
		return encodeSeq(b, seq, indent, inSeq)
	case []map[string]any:
		seq := make([]any, len(t))
		for i, m := range t {
			seq[i] = m
		}
		return encodeSeq(b, seq, indent, inSeq)
	}
	return fmt.Errorf("yaml: cannot encode value of type %T", v)
}

// encodeMap writes a non-empty mapping; encodeNode writes an empty one
// inline.
func encodeMap(b *strings.Builder, m map[string]any, indent int, inSeq bool) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 || !inSeq {
			writeIndent(b, indent)
		}
		b.WriteString(encodeKey(k))
		b.WriteByte(':')
		if s, ok := inline(m[k]); ok {
			b.WriteByte(' ')
			b.WriteString(s)
			b.WriteByte('\n')
			continue
		}
		b.WriteByte('\n')
		if err := encodeNode(b, m[k], indent+2, false); err != nil {
			return err
		}
	}
	return nil
}

// encodeSeq writes a non-empty sequence, as encodeMap a mapping.
func encodeSeq(b *strings.Builder, seq []any, indent int, inSeq bool) error {
	for i, item := range seq {
		if i > 0 || !inSeq {
			writeIndent(b, indent)
		}
		b.WriteString("- ")
		if s, ok := inline(item); ok {
			b.WriteString(s)
			b.WriteByte('\n')
			continue
		}
		if err := encodeNode(b, item, indent+2, true); err != nil {
			return err
		}
	}
	return nil
}

func writeIndent(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteByte(' ')
	}
}

// inline is v's spelling on one line — a scalar or an empty collection —
// and false for every other value.
func inline(v any) (string, bool) {
	switch t := v.(type) {
	case nil:
		return "null", true
	case bool:
		return strconv.FormatBool(t), true
	case int:
		return strconv.Itoa(t), true
	case int32:
		return strconv.FormatInt(int64(t), 10), true
	case int64:
		return strconv.FormatInt(t, 10), true
	case uint:
		return strconv.FormatUint(uint64(t), 10), true
	case uint32:
		return strconv.FormatUint(uint64(t), 10), true
	case uint64:
		return strconv.FormatUint(t, 10), true
	case float32:
		return formatFloat(float64(t)), true
	case float64:
		return formatFloat(t), true
	case string:
		return encodeString(t), true
	case map[string]any:
		return "{}", len(t) == 0
	case []any:
		return "[]", len(t) == 0
	case []string:
		return "[]", len(t) == 0
	case []map[string]any:
		return "[]", len(t) == 0
	}
	return "", false
}

func formatFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	// Keep floats recognizable as floats on round-trip.
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// encodeString quotes a string, a key or a value, only where its plain
// rendering would not decode back to it.
func encodeString(s string) string {
	if needsQuoting(s) {
		return quoteScalar(s)
	}
	return s
}

// encodeKey is encodeString for a mapping key, which is also quoted
// when it holds a flow indicator: the line grammar counts brackets and
// braces across a plain key (SplitEntry), so a plain "a[" would leave
// its line no entry.
func encodeKey(k string) string {
	if strings.ContainsAny(k, "[]{}") {
		return quoteScalar(k)
	}
	return encodeString(k)
}

// quoteScalar double-quotes a string using only the escape sequences the
// decoder's unquoteScalar accepts (\\ \" \n \r \t \uXXXX). strconv.Quote
// is unsuitable here: it emits Go-only escapes like \x7f and \a that
// would fail to re-decode (found by FuzzDecode). Bytes outside the
// escaped set — including non-UTF-8 — pass through verbatim in both
// directions, so quoting is byte-exact on round trip.
func quoteScalar(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			b.WriteString(`\"`)
		case c == '\\':
			b.WriteString(`\\`)
		case c == '\n':
			b.WriteString(`\n`)
		case c == '\r':
			b.WriteString(`\r`)
		case c == '\t':
			b.WriteString(`\t`)
		case c < 0x20 || c == 0x7f:
			fmt.Fprintf(&b, `\u%04x`, c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// needsQuoting reports whether a plain rendering of s would not decode
// back to s.
func needsQuoting(s string) bool {
	switch s {
	case "yes", "no", "on", "off": // YAML 1.1 booleans, for other readers
		return true
	case "...": // a document end on a line of its own
		return true
	}
	switch k := lexPlain(s); k {
	case ScalarString:
	case ScalarUndecided:
		if v, ok := plainScalar(s, k).(string); !ok || v != s {
			return true
		}
	default:
		return true
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
	// The decoder trims every rune unicode.IsSpace reports off a value
	// and a key.
	if i, j := TrimSpace(s, 0, len(s)); i != 0 || j != len(s) {
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
