package yaml

import (
	"strconv"
	"unicode/utf8"
)

// This file is the quoted-scalar grammar of block YAML — what the body
// of a double- or single-quoted scalar decodes to — written once, like
// lines.go, for the decoder (unquoteScalar) and for the decode-free
// walker of internal/compile, which checks every escaped scalar it meets
// with it and decodes the ones a policy check reads. Which scalars are
// quoted, and which bodies need no decoding, is LexScalar's (scalar.go).

// EscapeError is why the body of a double-quoted scalar does not decode;
// zero is none.
type EscapeError uint8

const (
	// EscapeDangling: a backslash ends the body.
	EscapeDangling EscapeError = iota + 1
	// EscapeShortU: fewer than four bytes follow a \u.
	EscapeShortU
	// EscapeBadU: the four bytes after a \u are not all hex digits.
	EscapeBadU
	// EscapeUnsupported: the byte after a backslash opens no escape.
	EscapeUnsupported
)

// AppendUnquoted appends to dst the string that body — what lies between
// the quotes q, double or single, of a quoted scalar — decodes to. Inside
// single quotes a doubled quote is one quote; inside double quotes a
// backslash opens \n, \t, \r, \", \\, \0 or \uXXXX (a surrogate half
// decodes to U+FFFD). Every other byte is itself, invalid UTF-8
// included, so the decoded string is never longer than body.
//
// When an escape does not decode, cause says why and at is the offset in
// body of the byte after its backslash (len(body) when there is none);
// out then holds what was decoded before it. A nil dst only validates:
// nothing is appended.
func AppendUnquoted[T string | []byte](dst []byte, q byte, body T) (out []byte, at int, cause EscapeError) {
	write := dst != nil
	if q == '\'' {
		for i := 0; i < len(body); {
			j := i
			for j < len(body) && body[j] != '\'' {
				j++
			}
			if j == len(body) {
				if write {
					dst = append(dst, body[i:]...)
				}
				break
			}
			if write {
				dst = append(dst, body[i:j+1]...)
			}
			i = j + 1
			if i < len(body) && body[i] == '\'' {
				i++ // a doubled quote is one
			}
		}
		return dst, 0, 0
	}
	for i := 0; i < len(body); {
		j := i
		for j < len(body) && body[j] != '\\' {
			j++
		}
		if write {
			dst = append(dst, body[i:j]...)
		}
		if j == len(body) {
			break
		}
		i = j + 1 // the escape's letter
		if i == len(body) {
			return dst, i, EscapeDangling
		}
		var c byte
		switch body[i] {
		case 'n':
			c = '\n'
		case 't':
			c = '\t'
		case 'r':
			c = '\r'
		case '"':
			c = '"'
		case '\\':
			c = '\\'
		case '0':
			c = 0
		case 'u':
			if i+4 >= len(body) {
				return dst, i, EscapeShortU
			}
			n, err := strconv.ParseUint(string(body[i+1:i+5]), 16, 32)
			if err != nil {
				return dst, i, EscapeBadU
			}
			if write {
				dst = utf8.AppendRune(dst, rune(n))
			}
			i += 5
			continue
		default:
			return dst, i, EscapeUnsupported
		}
		if write {
			dst = append(dst, c)
		}
		i++
	}
	return dst, 0, 0
}
