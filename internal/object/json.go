package object

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is KubeFence's one JSON document decoder: a single-pass
// recursive-descent parser over the body bytes that builds the value
// model directly. encoding/json is deliberately not underneath it. The
// checks below (duplicate keys, exact integers) need a token-level walk,
// and json.Decoder.Token re-enters Decode for every scalar: it re-scans
// the value, boxes it, and builds and discards a SyntaxError string on
// the way out, which made a 0.7 KB manifest cost 428 allocations and
// ~27 µs — most of a denied request, and slower than the YAML decoder on
// the same object. The previous Token-driven implementation lives on in
// json_reference_test.go as the differential oracle: the accept/reject
// set and every decoded value here are identical to its.
//
// Contract:
//
//   - Grammar is RFC 8259, strictly: no leading zeros, no bare '.' or
//     'e', no trailing commas, only space, tab, CR and LF between tokens,
//     raw control bytes (< 0x20) inside a string rejected, only the eight
//     short escapes and \uXXXX.
//   - Strings unquote by encoding/json's rules: an invalid UTF-8 byte
//     and a lone surrogate escape each become U+FFFD; an escaped
//     surrogate pair becomes its rune.
//   - Numbers normalize to int64 when the literal has no fraction or
//     exponent and fits (so 2^53+1 survives), else to float64, else — an
//     exponent overflowing float64 — the document is rejected.
//   - A key duplicated within one object is rejected, compared on the
//     decoded spelling ("a" and "\u0061" collide). Last-writer-wins
//     decoding would let an early occurrence of a key smuggle a sibling
//     value past any validator that only sees the decoded map (and past
//     upstream parsers that keep the first occurrence instead); the YAML
//     decoder takes the same stance. The streaming raw matcher relies on
//     this: it falls back on duplicates, and the decode path it falls
//     back TO must not quietly collapse them.
//   - A value nested deeper than maxDecodeDepth and non-space bytes
//     after the document are rejected.
//   - Errors name a byte offset and what was expected, and echo at most
//     maxErrorEcho bytes of the input: they are copied into 403 bodies
//     and retained denial records, which an attacker must not size.

// ParseJSON decodes a JSON request body into an Object without losing
// integer precision: plain json.Unmarshal coerces every number to
// float64, so an int64 that doesn't fit the float53 mantissa (e.g.
// runAsUser: 9007199254740993) silently becomes its neighbor BEFORE the
// policy ever sees it — two adjacent UIDs validate identically. Numbers
// normalize to the value model the rest of KubeFence speaks (int64 when
// the literal is an exact integer, float64 otherwise), matching what the
// YAML decoder produces for manifests. A root that is not an object is a
// decode error.
func ParseJSON(data []byte) (Object, error) {
	v, err := DecodeJSON(data)
	if err != nil {
		return nil, err
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("object: request root is %s, want object", jsonRootName(v))
	}
	return Object(m), nil
}

// maxDecodeDepth bounds the nesting the decoder accepts (the root is at
// depth 0), matching the limit encoding/json's own Decode enforces.
const maxDecodeDepth = 10000

// maxErrorEcho bounds the input bytes a decode error quotes.
const maxErrorEcho = 64

// DecodeJSON decodes an arbitrary JSON document under the contract at
// the top of this file; unlike ParseJSON it accepts any root value.
func DecodeJSON(data []byte) (any, error) {
	d := jsonDecoder{data: data}
	v, err := d.value(0)
	if err != nil {
		return nil, err
	}
	// Mirror json.Unmarshal's strictness: trailing non-space content
	// after the document is an error, not silently ignored.
	if d.skipSpace(); d.pos < len(d.data) {
		return nil, d.errorf(d.pos, "trailing data after JSON document")
	}
	return v, nil
}

// jsonDecoder is the cursor of one decode.
type jsonDecoder struct {
	data []byte
	pos  int
}

func (d *jsonDecoder) errorf(off int, format string, args ...any) error {
	return fmt.Errorf("object: invalid JSON at offset %d: %s", off, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at d.pos (or the end of input) where want
// was expected.
func (d *jsonDecoder) unexpected(want string) error {
	if d.pos >= len(d.data) {
		return d.errorf(d.pos, "unexpected end of document, want %s", want)
	}
	return d.errorf(d.pos, "unexpected %q, want %s", d.data[d.pos], want)
}

// echo quotes at most maxErrorEcho bytes of s for an error message.
func echo[T string | []byte](s T) string {
	if len(s) > maxErrorEcho {
		return strconv.Quote(string(s[:maxErrorEcho])) + "..."
	}
	return strconv.Quote(string(s))
}

func (d *jsonDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// value decodes the value starting at the next non-space byte.
func (d *jsonDecoder) value(depth int) (any, error) {
	if depth > maxDecodeDepth {
		return nil, d.errorf(d.pos, "document exceeds max nesting depth %d", maxDecodeDepth)
	}
	d.skipSpace()
	if d.pos >= len(d.data) {
		return nil, d.unexpected("a value")
	}
	switch c := d.data[d.pos]; {
	case c == '{':
		return d.object(depth)
	case c == '[':
		return d.array(depth)
	case c == '"':
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		return s, nil
	case c == '-' || (c >= '0' && c <= '9'):
		return d.number()
	case c == 't':
		return true, d.literal("true")
	case c == 'f':
		return false, d.literal("false")
	case c == 'n':
		return nil, d.literal("null")
	}
	return nil, d.unexpected("a value")
}

// object decodes the object whose '{' is at d.pos.
func (d *jsonDecoder) object(depth int) (any, error) {
	d.pos++
	m := map[string]any{}
	if d.skipSpace(); d.pos < len(d.data) && d.data[d.pos] == '}' {
		d.pos++
		return m, nil
	}
	for {
		if d.skipSpace(); d.pos >= len(d.data) || d.data[d.pos] != '"' {
			return nil, d.unexpected("an object key")
		}
		keyAt := d.pos
		key, err := d.str()
		if err != nil {
			return nil, err
		}
		if d.skipSpace(); d.pos >= len(d.data) || d.data[d.pos] != ':' {
			return nil, d.unexpected("':' after object key")
		}
		d.pos++
		val, err := d.value(depth + 1)
		if err != nil {
			return nil, err
		}
		// One hash per member: a duplicate is an insert that did not
		// grow the map.
		n := len(m)
		if m[key] = val; len(m) == n {
			return nil, d.errorf(keyAt, "duplicate object key %s", echo(key))
		}
		d.skipSpace()
		if d.pos >= len(d.data) {
			return nil, d.unexpected("',' or '}'")
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return m, nil
		default:
			return nil, d.unexpected("',' or '}'")
		}
	}
}

// array decodes the array whose '[' is at d.pos.
func (d *jsonDecoder) array(depth int) (any, error) {
	d.pos++
	a := []any{}
	if d.skipSpace(); d.pos < len(d.data) && d.data[d.pos] == ']' {
		d.pos++
		return a, nil
	}
	for {
		val, err := d.value(depth + 1)
		if err != nil {
			return nil, err
		}
		a = append(a, val)
		d.skipSpace()
		if d.pos >= len(d.data) {
			return nil, d.unexpected("',' or ']'")
		}
		switch d.data[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return a, nil
		default:
			return nil, d.unexpected("',' or ']'")
		}
	}
}

// literal consumes exactly w ("true", "false", "null") at d.pos.
func (d *jsonDecoder) literal(w string) error {
	if len(d.data)-d.pos < len(w) || string(d.data[d.pos:d.pos+len(w)]) != w {
		return d.errorf(d.pos, "invalid literal, want %s", w)
	}
	d.pos += len(w)
	return nil
}

// str decodes the string whose opening quote is at d.pos. The common
// string — no escape, no byte >= 0x80 — is sliced out in one allocation;
// anything else is unquoted by unquote.
func (d *jsonDecoder) str() (string, error) {
	data, start := d.data, d.pos+1
	i := start
	for i < len(data) && plainStringByte[data[i]] {
		i++
	}
	switch {
	case i == len(data):
		return "", d.errorf(i, "unexpected end of document in string")
	case data[i] == '"':
		d.pos = i + 1
		return string(data[start:i]), nil
	case data[i] < 0x20:
		return "", d.errorf(i, "raw control byte %#02x in string", data[i])
	}
	return d.unquote(start, i)
}

// plainStringByte marks the bytes a string carries over unchanged:
// ASCII other than control bytes, '"' and '\\'.
var plainStringByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote finishes str for a string that needs rewriting: data[i] is
// its first escape or non-ASCII byte. The rules are encoding/json's:
// invalid UTF-8 and unpaired surrogate escapes become U+FFFD.
func (d *jsonDecoder) unquote(start, i int) (string, error) {
	var scratch [64]byte // most rewritten strings are short: no heap buffer
	buf := append(scratch[:0], d.data[start:i]...)
	for i < len(d.data) {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return string(buf), nil
		case c == '\\':
			if i+1 >= len(d.data) {
				return "", d.errorf(len(d.data), "unexpected end of document in string")
			}
			switch e := d.data[i+1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r := hex4(d.data[i:])
				if r < 0 {
					return "", d.errorf(i, "invalid \\u escape in string")
				}
				if utf16.IsSurrogate(r) {
					// A valid pair consumes the second escape too; a lone
					// half is replaced and the next escape decodes on its own.
					if pair := utf16.DecodeRune(r, hex4(d.data[i+6:])); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				buf = utf8.AppendRune(buf, r)
				i += 4
			default:
				return "", d.errorf(i, "invalid escape %q in string", d.data[i:i+2])
			}
			i += 2
		case c < 0x20:
			return "", d.errorf(i, "raw control byte %#02x in string", c)
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			buf = utf8.AppendRune(buf, r)
			i += size
		}
	}
	return "", d.errorf(len(d.data), "unexpected end of document in string")
}

// hex4 decodes a \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number checks the literal at d.pos against the JSON grammar in place
// and normalizes it: int64 when it has no fraction or exponent and
// fits, else float64, else an error.
func (d *jsonDecoder) number() (any, error) {
	start := d.pos
	if d.data[d.pos] == '-' {
		d.pos++
	}
	intStart := d.pos
	if d.digits() == 0 {
		return nil, d.unexpected("a digit")
	}
	if d.data[intStart] == '0' && d.pos-intStart > 1 {
		return nil, d.errorf(intStart, "leading zero in number")
	}
	isInt := true
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		isInt = false
		d.pos++
		if d.digits() == 0 {
			return nil, d.unexpected("a digit after '.'")
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		isInt = false
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if d.digits() == 0 {
			return nil, d.unexpected("a digit in exponent")
		}
	}
	lit := d.data[start:d.pos]
	if isInt {
		// Up to 18 digits cannot overflow int64: accumulate in place.
		if d.pos-intStart <= 18 {
			var n int64
			for _, c := range d.data[intStart:d.pos] {
				n = n*10 + int64(c-'0')
			}
			if intStart != start {
				n = -n
			}
			return n, nil
		}
		if n, err := strconv.ParseInt(string(lit), 10, 64); err == nil {
			return n, nil
		}
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return nil, d.errorf(start, "number %s overflows every supported numeric type", echo(lit))
	}
	return f, nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *jsonDecoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

func jsonRootName(v any) string {
	switch v.(type) {
	case []any:
		return "array"
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%T", v)
	}
}
