package yaml

import (
	"unicode"
	"unicode/utf8"
)

// This file is the line grammar of block YAML — how a line splits into
// indentation, content and comment, content into a mapping key and the
// rest, and where a sequence item's inline content starts — written once,
// as offsets into a string or a []byte, for the decoder (decode.go) and
// for the decode-free walker of internal/compile, which must read every
// line exactly as the decoder does: the wire has one lexer.

// Line is one physical line's layout, in offsets into the line: Indent
// leading spaces (a tab is content), the content [Start, End) before any
// trailing comment, right-trimmed of spaces and tabs (empty for a blank
// or comment-only line), and Comment just past the comment's '#' (the
// line's length when there is none).
type Line struct{ Indent, Start, End, Comment int }

// SplitLine lays out one line, without its '\n'. A '#' opens a comment
// at the start of the content or after a space or tab, outside quotes;
// a '"' preceded by a backslash neither opens nor closes a quote.
func SplitLine[T string | []byte](line T) Line {
	l := Line{Comment: len(line)}
	for l.Indent < len(line) && line[l.Indent] == ' ' {
		l.Indent++
	}
	l.Start, l.End = l.Indent, len(line)
	inSingle, inDouble := false, false
	for i := l.Indent; i < len(line); i++ {
		switch c := line[i]; {
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			if i == l.Indent || line[i-1] != '\\' {
				inDouble = !inDouble
			}
		case c == '#' && !inSingle && !inDouble:
			if i == l.Indent || line[i-1] == ' ' || line[i-1] == '\t' {
				l.Comment, l.End = i+1, i
				i = len(line)
			}
		}
	}
	for l.End > l.Start && (line[l.End-1] == ' ' || line[l.End-1] == '\t') {
		l.End--
	}
	return l
}

// Entry splits a mapping entry's content, in offsets into it: the key
// [KeyStart, KeyEnd), trimmed as strings.TrimSpace trims or, when Quoted,
// with its quotes (the decoder unquotes it as a scalar); and the rest
// after the ':', trimmed alike, empty when the value continues on the
// following lines.
type Entry struct {
	KeyStart, KeyEnd, RestStart, RestEnd int
	Quoted                               bool
}

// SplitEntry splits "key: rest" content; ok is false for content that is
// no entry — a plain key with a quote in it, an empty key, no ':' at
// flow depth 0 followed by a space or the end, a quoted key without one.
func SplitEntry[T string | []byte](content T) (e Entry, ok bool) {
	if len(content) > 0 && (content[0] == '"' || content[0] == '\'') {
		i := quoteEnd(content)
		if i+1 >= len(content) || content[i+1] != ':' || i+2 < len(content) && content[i+2] != ' ' {
			return e, false
		}
		e.KeyEnd, e.Quoted = i+1, true
		e.RestStart, e.RestEnd = TrimSpace(content, i+2, len(content))
		return e, true
	}
	depth := 0
	for i := 0; i < len(content); i++ {
		switch content[i] {
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case '"', '\'':
			return e, false
		case ':':
			if depth == 0 && (i+1 == len(content) || content[i+1] == ' ') {
				e.KeyStart, e.KeyEnd = TrimSpace(content, 0, i)
				// The space a ':' needs is white space TrimSpace would cut.
				e.RestStart, e.RestEnd = TrimSpace(content, min(i+2, len(content)), len(content))
				return e, e.KeyStart < e.KeyEnd
			}
		}
	}
	return e, false
}

// SeqItem reports whether content opens a block-sequence item, "-" alone
// or "- item". at is where the inline item starts, re-read as a line of
// its own at indentation indent+at; at == len(content) when the item is
// on the following lines (content is right-trimmed: it never ends "- ").
func SeqItem[T string | []byte](content T) (at int, ok bool) {
	if len(content) == 0 || content[0] != '-' || len(content) > 1 && content[1] != ' ' {
		return 0, false
	}
	at = 1
	for at < len(content) && content[at] == ' ' {
		at++
	}
	return at, true
}

// quoteEnd is the offset of the quote closing the quoted scalar s opens,
// or len(s) when none does. Inside single quotes a doubled quote is an
// escaped one; inside double quotes a backslash escapes the byte after
// it, so the '"' of `\\"` closes the scalar and the one of `\"` does not.
func quoteEnd[T string | []byte](s T) int {
	q := s[0]
	for i := 1; i < len(s); i++ {
		switch {
		case q == '"' && s[i] == '\\':
			i++
		case s[i] != q:
		case q == '\'' && i+1 < len(s) && s[i+1] == '\'':
			i++
		default:
			return i
		}
	}
	return len(s)
}

// TrimSpace narrows s[i:j] to what strings.TrimSpace leaves of it: every
// rune unicode.IsSpace reports is cut from either end.
func TrimSpace[T string | []byte](s T, i, j int) (int, int) {
	if i == j || mayTrim[s[i]]|mayTrim[s[j-1]] == 0 {
		return i, j // printable ASCII at both ends: the common span
	}
	for i < j {
		r, n := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(string(s[i:min(j, i+utf8.UTFMax)]))
		}
		if !unicode.IsSpace(r) {
			break
		}
		i += n
	}
	for j > i {
		r, n := rune(s[j-1]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeLastRuneInString(string(s[max(i, j-utf8.UTFMax):j]))
		}
		if !unicode.IsSpace(r) {
			break
		}
		j -= n
	}
	return i, j
}

// mayTrim marks ASCII white space and every byte of a multi-byte rune.
var mayTrim = func() (t [256]uint8) {
	for c := range t {
		if c >= utf8.RuneSelf || unicode.IsSpace(rune(c)) {
			t[c] = 1
		}
	}
	return t
}()
