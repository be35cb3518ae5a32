package yaml

// This file is the scalar grammar of block YAML — what one trimmed inline
// value is, and for a plain one which type the decoder gives it — written
// once, like lines.go and quoted.go, for the decoder (parseScalar,
// plainScalar), for the encoder (needsQuoting) and for the decode-free
// walker of internal/compile. It is the YAML counterpart of
// object.LexJSON.

// ScalarKind is what LexScalar makes of an inline value.
type ScalarKind uint8

const (
	ScalarEmpty        ScalarKind = iota // nothing: the decoder reads null
	ScalarFlow                           // a '[' or '{' opens a flow collection
	ScalarNode                           // a '&', '*' or '!' opens an anchor, alias or tag: refused
	ScalarQuoted                         // one quote opens and closes it, around its body
	ScalarUnterminated                   // a quote opens it and does not close it

	// The plain kinds, by the value plainScalar makes of the bytes.
	ScalarNull   // ~, null, Null or NULL
	ScalarTrue   // true, True or TRUE
	ScalarFalse  // false, False or FALSE
	ScalarInt    // ^-?\d{1,18}$: an int64 that cannot overflow
	ScalarFloat  // ^-?\d+\.\d+$ with at most 18 digits: a finite float64
	ScalarString // bytes no number parser accepts: the string is the bytes
	// ScalarUndecided: a number the kinds above do not prove, or a string
	// that looks like one — hex, an exponent, a leading '+', an inf or
	// nan word, a '_', more than 18 digits. strconv decides.
	ScalarUndecided
)

// Scalar is one lexed inline value. For ScalarQuoted, Quote is the
// quote byte, double or single, the body is s[1:len(s)-1], and Clean
// means the body is the decoded string: a double-quoted one without a
// backslash, a single-quoted one without a quote. An unclean body's
// escapes are AppendUnquoted's to check.
type Scalar struct {
	Kind  ScalarKind
	Quote byte
	Clean bool
}

// maxScalarDigits bounds the digits of a proven ScalarInt or ScalarFloat:
// eighteen decimal digits never overflow an int64.
const maxScalarDigits = 18

// LexScalar types one inline value, already trimmed as TrimSpace trims,
// by its first byte as parseScalar dispatches, and a plain one by
// lexPlain.
func LexScalar[T string | []byte](s T) Scalar {
	if len(s) == 0 {
		return Scalar{}
	}
	switch q := s[0]; q {
	case '[', '{':
		return Scalar{Kind: ScalarFlow}
	case '&', '*', '!':
		return Scalar{Kind: ScalarNode}
	case '"', '\'':
		if len(s) < 2 || s[len(s)-1] != q {
			return Scalar{Kind: ScalarUnterminated, Quote: q}
		}
		esc := byte('\\')
		if q == '\'' {
			esc = q
		}
		clean := true
		for i := 1; i < len(s)-1; i++ {
			if s[i] == esc {
				clean = false
				break
			}
		}
		return Scalar{Kind: ScalarQuoted, Quote: q, Clean: clean}
	}
	return Scalar{Kind: lexPlain(s)}
}

// lexPlain types s as a plain scalar, whatever its first byte (a flow
// item's may be an indicator): one of the plain kinds, ScalarNull for
// an empty s.
func lexPlain[T string | []byte](s T) ScalarKind {
	switch string(s) {
	case "", "~", "null", "Null", "NULL":
		return ScalarNull
	case "true", "True", "TRUE":
		return ScalarTrue
	case "false", "False", "FALSE":
		return ScalarFalse
	}
	d := s
	if d[0] == '-' {
		d = d[1:]
	}
	whole := digits(d, 0)
	switch {
	case whole == len(d) && whole > 0 && whole <= maxScalarDigits:
		return ScalarInt
	case whole > 0 && whole < len(d) && d[whole] == '.':
		if frac := digits(d, whole+1); frac == len(d) && frac > whole+1 && frac-1 <= maxScalarDigits {
			return ScalarFloat
		}
	}
	// What strconv could still accept: ParseInt's [+-]?\d+, ParseFloat's
	// decimal grammar (at most one '.', '_' between digits), and hex and
	// the inf / nan words. Any other byte, or two dots, proves a string.
	if s[0] == '+' {
		d = s[1:]
	}
	if len(d) == 0 {
		return ScalarString // a bare sign
	}
	if len(d) >= 2 && d[0] == '0' && (d[1] == 'x' || d[1] == 'X') ||
		foldsTo(d, "inf") || foldsTo(d, "nan") || foldsTo(d, "infinity") {
		return ScalarUndecided
	}
	dots := 0
	for i := 0; i < len(d); i++ {
		switch c := d[i]; {
		case c >= '0' && c <= '9', c == '+', c == '-', c == '_', c == 'e', c == 'E':
		case c == '.':
			dots++
		default:
			return ScalarString
		}
	}
	if dots >= 2 {
		return ScalarString // an address such as 0.0.0.0, a version such as 1.2.3
	}
	return ScalarUndecided
}

// digits is the offset of the first byte at or after i of s that is not
// a decimal digit.
func digits[T string | []byte](s T, i int) int {
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i
}

// foldsTo reports whether s is the lower-case ASCII word w in any case.
func foldsTo[T string | []byte](s T, w string) bool {
	if len(s) != len(w) {
		return false
	}
	for i := 0; i < len(w); i++ {
		if s[i]|0x20 != w[i] {
			return false
		}
	}
	return true
}
