package object

import (
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is KubeFence's one JSON lexer and the decoder built on it.
// LexJSON reads a string, number or literal token without building a
// value; the decoder turns tokens into the value model, and the
// decode-free walker of internal/compile judges the same tokens off the
// wire, adding only its vouch bounds — the two cannot read a token
// differently. encoding/json is not underneath: json.Decoder.Token
// re-enters Decode per scalar (428 allocations for a 0.7 KB manifest).
// That decoder lives on in json_reference_test.go as the differential
// oracle: the accept/reject set and every decoded value here equal its.
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

// JSONKind is the class of a token LexJSON read; JSONInvalid is none.
type JSONKind uint8

const (
	JSONInvalid JSONKind = iota
	JSONString
	JSONNumber
	JSONTrue
	JSONFalse
	JSONNull
)

// JSONToken is one scalar token. End is the offset just past it or, for
// JSONInvalid, of the first byte the grammar refuses. A string is Plain
// when the bytes between its quotes are its decoded spelling (no escape,
// nothing outside printable ASCII). A number is Num.Int without fraction
// or exponent; Num.Digits counts its mantissa digits, Num.ExpDigits its
// exponent's. Four fields in 32 bytes let a token live in registers.
type JSONToken struct {
	Kind  JSONKind
	Plain bool
	End   int
	Num   struct {
		Int               bool
		Digits, ExpDigits int32
	}
}

// SkipJSONSpace returns the offset of the first byte at or after i that
// is not white space between JSON tokens (space, tab, CR, LF).
func SkipJSONSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r' || data[i] == '\n') {
		i++
	}
	return i
}

// LexJSON reads the string, number or literal token at data[i]
// (i < len(data)); any other byte is an invalid token at i. Strings, the
// common token, are lexed inline, a plain one in a table-driven loop.
func LexJSON(data []byte, i int) JSONToken {
	switch data[i] {
	case '"':
	case 't':
		return lexWord(data, i, "true", JSONTrue)
	case 'f':
		return lexWord(data, i, "false", JSONFalse)
	case 'n':
		return lexWord(data, i, "null", JSONNull)
	default:
		return lexNumber(data, i)
	}
	i++
	for i < len(data) && plainStringByte[data[i]] {
		i++
	}
	t := JSONToken{Kind: JSONString, Plain: true}
	for ; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			t.End = i + 1
			return t
		case c == '\\':
			t.Plain = false
			switch {
			case i+1 == len(data):
				return JSONToken{End: len(data)}
			case data[i+1] == 'u' && hex4(data[i:]) >= 0:
				i += 5
			case jsonEscapes[data[i+1]] != 0:
				i++
			default:
				return JSONToken{End: i}
			}
		case c < 0x20:
			return JSONToken{End: i}
		case c >= utf8.RuneSelf:
			t.Plain = false
		}
	}
	return JSONToken{End: len(data)}
}

func lexWord(data []byte, i int, w string, k JSONKind) JSONToken {
	if len(data)-i < len(w) || string(data[i:i+len(w)]) != w {
		return JSONToken{End: i}
	}
	return JSONToken{Kind: k, End: i + len(w)}
}

// plainStringByte marks the bytes a string carries over unchanged:
// ASCII other than control bytes, '"' and '\\'.
var plainStringByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// jsonEscapes maps the byte after a backslash to the byte the short
// escape stands for; zero marks every other byte ('u' is read apart).
var jsonEscapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// jsonWords spells the literal each first byte opens.
var jsonWords = map[byte]string{'t': "true", 'f': "false", 'n': "null"}

// lexNumber checks the literal at data[i] against the number grammar.
func lexNumber(data []byte, i int) JSONToken {
	t := JSONToken{Kind: JSONNumber}
	t.Num.Int = true
	if data[i] == '-' {
		i++
	}
	start := i
	i = skipDigits(data, i)
	switch {
	case i == start:
		return JSONToken{End: i}
	case data[start] == '0' && i-start > 1:
		return JSONToken{End: start}
	}
	digits, exp := i-start, 0
	if i < len(data) && data[i] == '.' {
		t.Num.Int = false
		j := skipDigits(data, i+1)
		if j == i+1 {
			return JSONToken{End: j}
		}
		digits, i = digits+j-i-1, j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		t.Num.Int = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := skipDigits(data, i)
		if j == i {
			return JSONToken{End: j}
		}
		exp, i = j-i, j
	}
	// Saturated: the readers only compare the counts with small bounds.
	t.End, t.Num.Digits, t.Num.ExpDigits = i, int32(min(digits, math.MaxInt32)), int32(min(exp, math.MaxInt32))
	return t
}

func skipDigits(data []byte, i int) int {
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		i++
	}
	return i
}

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

// lexError explains the token LexJSON refused: it began at start and
// the grammar failed at off.
func (d *jsonDecoder) lexError(start, off int) error {
	d.pos = off
	switch c := d.data[start]; {
	case c == '"':
		switch {
		case off == len(d.data):
			return d.errorf(off, "unexpected end of document in string")
		case d.data[off] < 0x20:
			return d.errorf(off, "raw control byte %#02x in string", d.data[off])
		case d.data[off+1] == 'u':
			return d.errorf(off, "invalid \\u escape in string")
		}
		return d.errorf(off, "invalid escape %q in string", d.data[off:off+2])
	case c == 't' || c == 'f' || c == 'n':
		return d.errorf(start, "invalid literal, want %s", jsonWords[c])
	case c != '-' && (c < '0' || c > '9'):
		return d.unexpected("a value")
	case off < len(d.data) && d.data[off] >= '0' && d.data[off] <= '9':
		return d.errorf(off, "leading zero in number")
	case d.data[off-1] == '.':
		return d.unexpected("a digit after '.'")
	case off-1 > start: // past the sign, the integer part and any fraction
		return d.unexpected("a digit in exponent")
	}
	return d.unexpected("a digit")
}

// echo quotes at most maxErrorEcho bytes of s for an error message.
func echo[T string | []byte](s T) string {
	if len(s) > maxErrorEcho {
		return strconv.Quote(string(s[:maxErrorEcho])) + "..."
	}
	return strconv.Quote(string(s))
}

func (d *jsonDecoder) skipSpace() { d.pos = SkipJSONSpace(d.data, d.pos) }

// value decodes the value starting at the next non-space byte.
func (d *jsonDecoder) value(depth int) (any, error) {
	if depth > maxDecodeDepth {
		return nil, d.errorf(d.pos, "document exceeds max nesting depth %d", maxDecodeDepth)
	}
	d.skipSpace()
	if d.pos >= len(d.data) {
		return nil, d.unexpected("a value")
	}
	switch d.data[d.pos] {
	case '{':
		return d.object(depth)
	case '[':
		return d.array(depth)
	}
	start := d.pos
	t := LexJSON(d.data, start)
	d.pos = t.End
	switch t.Kind {
	case JSONString:
		return d.str(start, t), nil
	case JSONNumber:
		return d.number(start, t)
	case JSONTrue:
		return true, nil
	case JSONFalse:
		return false, nil
	case JSONNull:
		return nil, nil
	}
	return nil, d.lexError(start, t.End)
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
		t := LexJSON(d.data, keyAt)
		if t.Kind == JSONInvalid {
			return nil, d.lexError(keyAt, t.End)
		}
		d.pos = t.End
		key := d.str(keyAt, t)
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

// str decodes the string token t read at start: a plain one is sliced
// out in one allocation, anything else is unquoted.
func (d *jsonDecoder) str(start int, t JSONToken) string {
	if t.Plain {
		return string(d.data[start+1 : t.End-1])
	}
	return unquote(d.data[start+1 : t.End-1])
}

// unquote decodes the body of a string token LexJSON accepted.
func unquote(s []byte) string {
	var scratch [64]byte // most rewritten strings are short: no heap buffer
	return string(AppendUnquoted(scratch[:0], s))
}

// AppendUnquoted appends to buf the string that s, the body of a string
// token LexJSON accepted (the bytes between its quotes), decodes to by
// encoding/json's rules: invalid UTF-8 and unpaired surrogate escapes
// become U+FFFD. The decoder calls it, and so does the decode-free walker
// of internal/compile for a string a policy check reads.
func AppendUnquoted(buf, s []byte) []byte {
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\' && s[i+1] == 'u':
			r := hex4(s[i:])
			if utf16.IsSurrogate(r) {
				// A valid pair consumes the second escape too; a lone
				// half is replaced and the next escape decodes on its own.
				if pair := utf16.DecodeRune(r, hex4(s[i+6:])); pair != unicode.ReplacementChar {
					r = pair
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			buf = utf8.AppendRune(buf, r)
			i += 6
		case c == '\\':
			buf = append(buf, jsonEscapes[s[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			j := i + 1
			for j < len(s) && plainStringByte[s[j]] {
				j++
			}
			buf = append(buf, s[i:j]...)
			i = j
		default:
			r, size := utf8.DecodeRune(s[i:])
			buf = utf8.AppendRune(buf, r)
			i += size
		}
	}
	return buf
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

// number normalizes the number token t read at start: int64 when it has
// no fraction or exponent and fits, else float64, else an error.
func (d *jsonDecoder) number(start int, t JSONToken) (any, error) {
	lit := d.data[start:t.End]
	if t.Num.Int {
		// Up to 18 digits cannot overflow int64: accumulate in place.
		if t.Num.Digits <= 18 {
			var n int64
			for _, c := range lit[len(lit)-int(t.Num.Digits):] {
				n = n*10 + int64(c-'0')
			}
			if lit[0] == '-' {
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
