package yaml

import (
	"strconv"
	"strings"
	"testing"
)

// referenceUnquoteScalar is the decoder's unquoteScalar as it was before
// quoted.go turned its loops into AppendUnquoted, shared with the
// decode-free walker: moved here verbatim as the differential oracle.
func referenceUnquoteScalar(s string, lineNum int) (any, error) {
	if len(s) < 2 {
		return nil, errAt(lineNum, "malformed quoted scalar %s", echo(s))
	}
	q := s[0]
	if s[len(s)-1] != q {
		return nil, errAt(lineNum, "unterminated quoted scalar %s", echo(s))
	}
	body := s[1 : len(s)-1]
	if q == '\'' {
		return strings.ReplaceAll(body, "''", "'"), nil
	}
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return nil, errAt(lineNum, "dangling escape in %s", echo(s))
		}
		switch body[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case '0':
			b.WriteByte(0)
		case 'u':
			if i+4 >= len(body) {
				return nil, errAt(lineNum, "short \\u escape in %s", echo(s))
			}
			n, err := strconv.ParseUint(body[i+1:i+5], 16, 32)
			if err != nil {
				return nil, errAt(lineNum, "bad \\u escape in %s", echo(s))
			}
			b.WriteRune(rune(n))
			i += 4
		default:
			return nil, errAt(lineNum, "unsupported escape \\%c", body[i])
		}
	}
	return b.String(), nil
}

// checkUnquote holds unquoteScalar to the reference on one quoted
// scalar — the same value, or the same error text — and AppendUnquoted's
// validating form (a nil dst) to the same verdict.
func checkUnquote(t *testing.T, s string) {
	t.Helper()
	got, err := unquoteScalar(s, 7)
	want, werr := referenceUnquoteScalar(s, 7)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("%q: error %v, reference %v", s, err, werr)
	case err != nil && err.Error() != werr.Error():
		t.Fatalf("%q: error %q, reference %q", s, err, werr)
	case got != want:
		t.Fatalf("%q: decodes to %q, reference %q", s, got, want)
	}
	if len(s) >= 2 && s[0] == s[len(s)-1] {
		if _, _, cause := AppendUnquoted(nil, s[0], s[1:len(s)-1]); (cause == 0) != (werr == nil) {
			t.Fatalf("%q: validating form says %d, reference error %v", s, cause, werr)
		}
	}
}

// TestUnquoteMatchesReference enumerates every double-quoted body of up
// to five symbols over an alphabet holding each escape letter, a hex
// digit of each case, a non-hex letter, a multi-byte rune, a stray byte
// of one and both quotes, and every single-quoted body of up to six over
// the quotes and a letter; plus the malformed spans. Each decodes to the
// reference's value or fails with its error text, byte for byte.
func TestUnquoteMatchesReference(t *testing.T) {
	double := []string{"a", "é", "\\", "n", "t", "r", "\"", "0", "u", "F", "x", "'", "\xc3"}
	single := []string{"a", "'", "\"", "\\"}
	n := 0
	var walk func(alphabet []string, q, body string, left int)
	walk = func(alphabet []string, q, body string, left int) {
		checkUnquote(t, q+body+q)
		n++
		if left == 0 {
			return
		}
		for _, sym := range alphabet {
			walk(alphabet, q, body+sym, left-1)
		}
	}
	walk(double, `"`, "", 5)
	walk(single, `'`, "", 6)
	for _, s := range []string{`"`, `'`, `"a`, `'a`, `"a'`, `'a"`, `"\u12"`, `"\u123"`, `"\u1234"`, `"\uD800"`, `"\udfff\ud83d"`, `"é\U0001"`} {
		checkUnquote(t, s)
		n++
	}
	t.Logf("%d quoted scalars", n)
}
