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
// line exactly as the decoder does: the wire has one lexer. LexLine lays
// a line out and finds its '\n' in one pass over it, the walker's line
// cursor over a whole body; the decoder, which splits its input into
// lines first, calls it on each line as SplitLine. The hot loops —
// LexLine's, spanEnd's, SplitEntry's plain key — look each ordinary byte
// up in a class table and branch only on the few bytes that matter.

// Line is one physical line's layout, in offsets into the line: Indent
// leading spaces (a tab is content), the content [Start, End) before any
// trailing comment, right-trimmed of spaces and tabs (empty for a blank
// or comment-only line), and Comment just past the comment's '#' (the
// line's length when there is none).
type Line struct{ Indent, Start, End, Comment int }

// LexLine lays out the line that opens at data[pos] and finds its end,
// the offset of its '\n' (len(data) on the last line), in the same pass;
// l's offsets are into the line, data[pos:end]. A '#' opens a comment at
// the start of the content or after a space or tab, outside quotes. A
// quote opens a quoted span only where a scalar starts (scalarStart), so
// the quote of a plain "it's" is content; the span ends where spanEnd
// ends a quoted scalar, or at the end of the line. Ordinary bytes cost
// one lineClass lookup each, and once a comment opens the rest of the
// line is only searched for its '\n'.
func LexLine[T string | []byte](data T, pos int) (l Line, end int) {
	i := pos
	for i < len(data) && data[i] == ' ' {
		i++
	}
	start, stop, comment := i, -1, -1
scan:
	for ; i < len(data); i++ {
		c := data[i]
		if !lineClass[c] {
			continue
		}
		switch {
		case c == '\n':
			break scan
		case c == '#':
			if i == start || data[i-1] == ' ' || data[i-1] == '\t' {
				stop, comment = i, i+1
				for i = comment; i < len(data) && data[i] != '\n'; i++ {
				}
				break scan
			}
		case scalarStart(data, start, i):
			if i = spanEnd(data, i); i == len(data) || data[i] == '\n' {
				break scan
			}
		}
	}
	if stop < 0 {
		stop, comment = i, i
	}
	for stop > start && (data[stop-1] == ' ' || data[stop-1] == '\t') {
		stop--
	}
	return Line{Indent: start - pos, Start: start - pos, End: stop - pos, Comment: comment - pos}, i
}

// scalarStart reports whether the quote at data[i] opens a quoted
// scalar: it stands at the content's start, or after an indicator a
// node follows — "- ", ": " or "? " — or a flow collection's '[', '{'
// or ',', past any spaces and tabs. Anywhere else, as in "it's" or
// a"b, a quote is a plain scalar's content.
func scalarStart[T string | []byte](data T, start, i int) bool {
	j := i
	for j > start && (data[j-1] == ' ' || data[j-1] == '\t') {
		j--
	}
	if j == start {
		return true
	}
	switch data[j-1] {
	case '[', '{', ',':
		return true
	case '-', ':', '?':
		return j < i
	}
	return false
}

// SplitLine lays out one line that holds no '\n', as LexLine does.
func SplitLine[T string | []byte](line T) Line {
	l, _ := LexLine(line, 0)
	return l
}

// lineClass marks the bytes LexLine stops at: the quotes, the '#' that
// may open a comment and the '\n' that ends the line.
var lineClass = [256]bool{'\'': true, '"': true, '#': true, '\n': true}

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
		i := spanEnd(content, 0)
		if i+1 >= len(content) || content[i+1] != ':' || i+2 < len(content) && content[i+2] != ' ' {
			return e, false
		}
		e.KeyEnd, e.Quoted = i+1, true
		e.RestStart, e.RestEnd = TrimSpace(content, i+2, len(content))
		return e, true
	}
	depth := 0
	for i := 0; i < len(content); i++ {
		if !keyClass[content[i]] {
			continue
		}
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

// keyClass marks the bytes SplitEntry's plain-key loop stops at.
var keyClass = [256]bool{':': true, '[': true, ']': true, '{': true, '}': true, '"': true, '\'': true}

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

// spanEnd is the offset of the quote closing the quoted scalar that
// opens at s[i], or of the end of its line — its '\n', or len(s) — when
// the line does not close it. Inside single quotes a doubled quote is an
// escaped one; inside double quotes a backslash escapes the byte after
// it, so the '"' of `\\"` closes the scalar and the one of `\"` does
// not (a backslash escapes no '\n': the line ends there).
func spanEnd[T string | []byte](s T, i int) int {
	q := s[i]
	for i++; i < len(s); i++ {
		c := s[i]
		if !spanClass[c] {
			continue
		}
		switch {
		case c == '\n':
			return i
		case c == '\\':
			if q == '"' && i+1 < len(s) && s[i+1] != '\n' {
				i++
			}
		case c != q:
		case q == '\'' && i+1 < len(s) && s[i+1] == '\'':
			i++
		default:
			return i
		}
	}
	return i
}

// spanClass marks the bytes spanEnd stops at.
var spanClass = [256]bool{'\'': true, '"': true, '\\': true, '\n': true}

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
