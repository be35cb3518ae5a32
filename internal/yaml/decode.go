package yaml

import (
	"strconv"
	"strings"
	"unicode"
)

// This file is the block-YAML decoder. It reads lines through lines.go,
// the line grammar the decode-free walker of internal/compile reads
// with too, and builds values from them.

// srcLine is one physical line of input after comment splitting.
type srcLine struct {
	num     int    // 1-based line number
	indent  int    // count of leading spaces
	content string // line body without indentation and trailing comment
	comment string // trailing comment text, without the leading '#'
	raw     string // original line, used for block scalars
	blank   bool   // line empty or comment-only
}

type parser struct {
	lines        []srcLine
	pos          int
	comments     map[string]string
	keepComments bool
}

func decodeStream(data []byte, keepComments bool) ([]any, map[string]string, error) {
	raw := strings.Split(strings.ReplaceAll(string(data), "\r\n", "\n"), "\n")
	p := &parser{keepComments: keepComments}
	if keepComments {
		p.comments = make(map[string]string)
	}
	for i, r := range raw {
		p.lines = append(p.lines, readLine(i+1, r))
	}
	var docs []any
	for {
		p.skipBlank()
		if p.pos >= len(p.lines) {
			break
		}
		l := p.lines[p.pos]
		if l.content == "---" {
			p.pos++
			p.skipBlank()
			if p.pos >= len(p.lines) || p.lines[p.pos].content == "---" || p.lines[p.pos].content == "..." {
				docs = append(docs, nil)
				continue
			}
		}
		if p.pos >= len(p.lines) {
			break
		}
		if p.lines[p.pos].content == "..." {
			p.pos++
			continue
		}
		v, err := p.parseNode(p.lines[p.pos].indent, "")
		if err != nil {
			return nil, nil, err
		}
		docs = append(docs, v)
		// After a document, the next non-blank line must be a separator or EOF.
		p.skipBlank()
		if p.pos < len(p.lines) {
			c := p.lines[p.pos].content
			if c != "---" && c != "..." {
				return nil, nil, errAt(p.lines[p.pos].num, "unexpected content %s after document", echo(c))
			}
		}
	}
	return docs, p.comments, nil
}

// readLine lays out one physical line by the line grammar (lines.go).
func readLine(num int, raw string) srcLine {
	l := SplitLine(raw)
	return srcLine{num: num, indent: l.Indent, content: raw[l.Start:l.End],
		comment: strings.TrimSpace(raw[l.Comment:]), raw: raw, blank: l.Start == l.End}
}

// skipBlank advances past blank and comment-only lines.
func (p *parser) skipBlank() {
	for p.pos < len(p.lines) && p.lines[p.pos].blank {
		p.pos++
	}
}

// parseNode parses the node starting at the current line, which must have
// exactly the given indentation. path is the dotted key path for comments.
func (p *parser) parseNode(indent int, path string) (any, error) {
	if p.pos >= len(p.lines) {
		return nil, nil
	}
	l := p.lines[p.pos]
	if _, ok := SeqItem(l.content); ok {
		return p.parseSequence(indent, path)
	}
	if _, _, ok := mappingEntry(l.content); ok {
		return p.parseMapping(indent, path)
	}
	// Bare scalar document (possibly spanning a single line).
	p.pos++
	return parseScalar(l.content, l.num)
}

// precedingComments scans backwards from the current position and returns
// the contiguous run of comment-only lines directly above it. A fully blank
// line breaks the run.
func (p *parser) precedingComments() []string {
	var rev []string
	for i := p.pos - 1; i >= 0; i-- {
		l := p.lines[i]
		if !l.blank {
			break
		}
		if l.comment == "" {
			break
		}
		rev = append(rev, l.comment)
	}
	// Reverse into document order.
	out := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// parseMapping parses a block mapping whose keys sit at the given indent.
func (p *parser) parseMapping(indent int, path string) (any, error) {
	m := make(map[string]any)
	for {
		p.skipBlank()
		if p.pos >= len(p.lines) {
			break
		}
		pending := p.precedingComments()
		l := p.lines[p.pos]
		if l.content == "---" || l.content == "..." {
			break
		}
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, errAt(l.num, "unexpected indentation %d in mapping at indent %d", l.indent, indent)
		}
		key, rest, ok := mappingEntry(l.content)
		if !ok {
			return nil, errAt(l.num, "expected mapping entry, got %s", echo(l.content))
		}
		if _, dup := m[key]; dup {
			return nil, errAt(l.num, "duplicate key %s", echo(key))
		}
		childPath := key
		if path != "" {
			childPath = path + "." + key
		}
		if p.keepComments {
			var texts []string
			texts = append(texts, pending...)
			if l.comment != "" {
				texts = append(texts, l.comment)
			}
			if len(texts) > 0 {
				p.comments[childPath] = strings.Join(texts, " ")
			}
		}
		p.pos++
		val, err := p.parseValueAfterKey(rest, indent, childPath, l.num)
		if err != nil {
			return nil, err
		}
		m[key] = val
	}
	return m, nil
}

// parseValueAfterKey handles the value part of "key: <rest>". rest may be
// empty (nested block or null), a block-scalar indicator, or an inline
// scalar / flow value.
func (p *parser) parseValueAfterKey(rest string, keyIndent int, path string, keyLine int) (any, error) {
	switch {
	case rest == "":
		// Nested block, or null if nothing more indented follows.
		save := p.pos
		p.skipBlank()
		if p.pos < len(p.lines) {
			nl := p.lines[p.pos]
			if nl.content != "---" && nl.content != "..." {
				if nl.indent > keyIndent {
					return p.parseNode(nl.indent, path)
				}
				// A sequence may sit at the same indent as its key.
				if _, ok := SeqItem(nl.content); ok && nl.indent == keyIndent {
					return p.parseSequence(nl.indent, path)
				}
			}
		}
		p.pos = save
		return nil, nil
	case rest[0] == '|' || rest[0] == '>':
		return p.parseBlockScalar(rest, keyIndent, keyLine)
	default:
		return parseScalar(rest, keyLine)
	}
}

// parseSequence parses a block sequence whose dashes sit at the given indent.
func (p *parser) parseSequence(indent int, path string) (any, error) {
	seq := []any{}
	for {
		p.skipBlank()
		if p.pos >= len(p.lines) {
			break
		}
		l := p.lines[p.pos]
		if l.content == "---" || l.content == "..." {
			break
		}
		at, item := SeqItem(l.content)
		if l.indent != indent || !item {
			if _, _, entry := mappingEntry(l.content); l.indent > indent && !entry {
				return nil, errAt(l.num, "unexpected indentation in sequence")
			}
			break
		}
		itemPath := path
		if at == len(l.content) {
			p.pos++
			save := p.pos
			p.skipBlank()
			if p.pos < len(p.lines) && p.lines[p.pos].indent > indent &&
				p.lines[p.pos].content != "---" && p.lines[p.pos].content != "..." {
				v, err := p.parseNode(p.lines[p.pos].indent, itemPath)
				if err != nil {
					return nil, err
				}
				seq = append(seq, v)
			} else {
				p.pos = save
				seq = append(seq, nil)
			}
			continue
		}
		// "- <inline>": rewrite the current line to drop the dash and
		// re-parse at the adjusted indentation so nested keys align.
		innerIndent := indent + at
		p.lines[p.pos] = srcLine{
			num: l.num, indent: innerIndent, content: l.content[at:], comment: l.comment, raw: l.raw,
		}
		v, err := p.parseNode(innerIndent, itemPath)
		if err != nil {
			return nil, err
		}
		seq = append(seq, v)
	}
	return seq, nil
}

// parseBlockScalar parses "|", "|-", "|+", ">", ">-", ">+" scalars.
func (p *parser) parseBlockScalar(indicator string, keyIndent int, keyLine int) (any, error) {
	style := indicator[0]
	chomp := byte(0)
	if len(indicator) > 1 {
		switch indicator[1] {
		case '-', '+':
			chomp = indicator[1]
		default:
			return nil, errAt(keyLine, "unsupported block scalar indicator %s", echo(indicator))
		}
		if len(indicator) > 2 {
			return nil, errAt(keyLine, "unsupported block scalar indicator %s", echo(indicator))
		}
	}
	var body []string
	blockIndent := -1
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if strings.TrimSpace(l.raw) == "" {
			body = append(body, "")
			p.pos++
			continue
		}
		lineIndent := l.indent // a block scalar's lines are never rewritten items
		if lineIndent <= keyIndent {
			break
		}
		if blockIndent < 0 {
			blockIndent = lineIndent
		}
		if lineIndent < blockIndent {
			break
		}
		body = append(body, l.raw[blockIndent:])
		p.pos++
	}
	// Trim trailing blank lines recorded past the block's end.
	for len(body) > 0 && body[len(body)-1] == "" {
		body = body[:len(body)-1]
	}
	var s string
	if style == '|' {
		s = strings.Join(body, "\n")
	} else {
		// Folded: join adjacent non-empty lines with spaces; blank lines
		// become newlines. (Simplified: no indented-literal preservation.)
		var parts []string
		cur := ""
		for _, ln := range body {
			if ln == "" {
				parts = append(parts, cur)
				cur = ""
				continue
			}
			if cur == "" {
				cur = ln
			} else {
				cur += " " + ln
			}
		}
		parts = append(parts, cur)
		s = strings.Join(parts, "\n")
	}
	switch chomp {
	case '-':
		// strip: no trailing newline
	case '+':
		s += "\n"
	default:
		if s != "" {
			s += "\n"
		}
	}
	return s, nil
}

// mappingEntry splits "key: rest" content into the decoded key and the
// rest; ok is false for no entry or a quoted key that does not unquote.
func mappingEntry(content string) (key, rest string, ok bool) {
	e, ok := SplitEntry(content)
	if !ok {
		return "", "", false
	}
	key, rest = content[e.KeyStart:e.KeyEnd], content[e.RestStart:e.RestEnd]
	if e.Quoted {
		k, err := unquoteScalar(key, 0)
		key, _ = k.(string)
		ok = err == nil
	}
	return key, rest, ok
}

// parseScalar parses an inline scalar or flow collection, as LexScalar
// types it.
func parseScalar(s string, lineNum int) (any, error) {
	s = strings.TrimSpace(s)
	switch l := LexScalar(s); l.Kind {
	case ScalarEmpty:
		return nil, nil
	case ScalarFlow:
		v, rest, err := parseFlow(s, lineNum)
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(rest) != "" {
			if s[0] == '[' {
				return nil, errAt(lineNum, "trailing content after flow sequence: %s", echo(rest))
			}
			return nil, errAt(lineNum, "trailing content after flow mapping: %s", echo(rest))
		}
		return v, nil
	case ScalarQuoted, ScalarUnterminated:
		return unquoteScalar(s, lineNum)
	case ScalarNode:
		return nil, errAt(lineNum, "anchors, aliases and tags are not supported (%s)", echo(s))
	default:
		return plainScalar(s, l.Kind), nil
	}
}

// parseFlow parses a flow collection ([...] or {...}) and returns the value
// plus any unconsumed remainder.
func parseFlow(s string, lineNum int) (any, string, error) {
	s = strings.TrimLeft(s, " ")
	if s == "" {
		return nil, "", errAt(lineNum, "empty flow value")
	}
	switch s[0] {
	case '[':
		rest := strings.TrimLeft(s[1:], " ")
		seq := []any{}
		if strings.HasPrefix(rest, "]") {
			return seq, rest[1:], nil
		}
		for {
			var item any
			var err error
			item, rest, err = parseFlowItem(rest, lineNum)
			if err != nil {
				return nil, "", err
			}
			seq = append(seq, item)
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, ",") {
				rest = strings.TrimLeft(rest[1:], " ")
				if strings.HasPrefix(rest, "]") { // trailing comma
					return seq, rest[1:], nil
				}
				continue
			}
			if strings.HasPrefix(rest, "]") {
				return seq, rest[1:], nil
			}
			return nil, "", errAt(lineNum, "malformed flow sequence near %s", echo(rest))
		}
	case '{':
		rest := strings.TrimLeft(s[1:], " ")
		m := map[string]any{}
		if strings.HasPrefix(rest, "}") {
			return m, rest[1:], nil
		}
		for {
			rest = strings.TrimLeft(rest, " ")
			// Parse key up to ':'.
			var key string
			if rest != "" && (rest[0] == '"' || rest[0] == '\'') {
				k, r2, err := parseFlowItem(rest, lineNum)
				if err != nil {
					return nil, "", err
				}
				key = scalarString(k)
				rest = strings.TrimLeft(r2, " ")
			} else {
				idx := strings.IndexByte(rest, ':')
				if idx < 0 {
					return nil, "", errAt(lineNum, "malformed flow mapping near %s", echo(rest))
				}
				key = strings.TrimSpace(rest[:idx])
				rest = rest[idx:]
			}
			if !strings.HasPrefix(rest, ":") {
				return nil, "", errAt(lineNum, "expected ':' in flow mapping near %s", echo(rest))
			}
			rest = strings.TrimLeft(rest[1:], " ")
			var val any
			var err error
			if strings.HasPrefix(rest, ",") || strings.HasPrefix(rest, "}") {
				val = nil
			} else {
				val, rest, err = parseFlowItem(rest, lineNum)
				if err != nil {
					return nil, "", err
				}
			}
			m[key] = val
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				if strings.HasPrefix(strings.TrimLeft(rest, " "), "}") {
					rest = strings.TrimLeft(rest, " ")
					return m, rest[1:], nil
				}
				continue
			}
			if strings.HasPrefix(rest, "}") {
				return m, rest[1:], nil
			}
			return nil, "", errAt(lineNum, "malformed flow mapping near %s", echo(rest))
		}
	default:
		return nil, "", errAt(lineNum, "expected flow collection near %s", echo(s))
	}
}

// parseFlowItem parses one element inside a flow collection.
func parseFlowItem(s string, lineNum int) (any, string, error) {
	// The white space a plain item's TrimSpace would cut, so a quote
	// after a tab still opens a quoted item.
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if s == "" {
		return nil, "", errAt(lineNum, "unterminated flow collection")
	}
	switch s[0] {
	case '[', '{':
		return parseFlow(s, lineNum)
	case '"', '\'':
		i := spanEnd(s, 0)
		switch {
		case i < len(s):
			v, err := unquoteScalar(s[:i+1], lineNum)
			return v, s[i+1:], err
		case s[0] == '"':
			return nil, "", errAt(lineNum, "unterminated double-quoted scalar")
		}
		return nil, "", errAt(lineNum, "unterminated single-quoted scalar")
	default:
		end := len(s)
		depth := 0
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '[' || c == '{' {
				depth++
			}
			if depth == 0 && (c == ',' || c == ']' || c == '}') {
				end = i
				break
			}
			if c == ']' || c == '}' {
				depth--
			}
		}
		item := strings.TrimSpace(s[:end])
		return plainScalar(item, lexPlain(item)), s[end:], nil
	}
}

// unquoteScalar interprets a quoted scalar including escape sequences
// (quoted.go).
func unquoteScalar(s string, lineNum int) (any, error) {
	l := LexScalar(s)
	switch {
	case len(s) < 2:
		return nil, errAt(lineNum, "malformed quoted scalar %s", echo(s))
	case l.Kind != ScalarQuoted:
		return nil, errAt(lineNum, "unterminated quoted scalar %s", echo(s))
	}
	q, body := l.Quote, s[1:len(s)-1]
	if l.Clean {
		return body, nil // nothing to rewrite
	}
	var scratch [64]byte // most rewritten scalars are short: no heap buffer
	out, at, cause := AppendUnquoted(scratch[:0], q, body)
	switch cause {
	case EscapeDangling:
		return nil, errAt(lineNum, "dangling escape in %s", echo(s))
	case EscapeShortU:
		return nil, errAt(lineNum, "short \\u escape in %s", echo(s))
	case EscapeBadU:
		return nil, errAt(lineNum, "bad \\u escape in %s", echo(s))
	case EscapeUnsupported:
		return nil, errAt(lineNum, "unsupported escape \\%c", body[at])
	}
	return string(out), nil
}

// plainScalar is the value of the plain scalar s, which lexPlain types
// as k: the words and proven strings as lexed, and a number, proven or
// not, by strconv.
func plainScalar(s string, k ScalarKind) any {
	switch k {
	case ScalarNull:
		return nil
	case ScalarTrue:
		return true
	case ScalarFalse:
		return false
	case ScalarString:
		return s
	case ScalarFloat:
		// Proven finite: ParseInt would fail first, and its error
		// allocates.
		f, _ := strconv.ParseFloat(s, 64)
		return f
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
		return f
	}
	return s
}

// scalarString renders a decoded scalar back to its string form.
func scalarString(v any) string {
	switch t := v.(type) {
	case nil:
		return ""
	case string:
		return t
	case bool:
		return strconv.FormatBool(t)
	case int64:
		return strconv.FormatInt(t, 10)
	case float64:
		return strconv.FormatFloat(t, 'g', -1, 64)
	default:
		return ""
	}
}
