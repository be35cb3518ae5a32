package compile

import (
	"bytes"

	"repro/internal/validator"
	"repro/internal/yaml"
)

// This file is the block-YAML walker of the decode-free fast path: a
// line cursor and one recursive skeleton over raw manifest bytes, so a
// YAML request it judges — an allowed one or an enforce-mode denial —
// never materializes lines, strings, or a decoded document. Its line
// grammar is the decoder's own (internal/yaml's SplitLine, SplitEntry,
// SeqItem, TrimSpace, on byte spans here and on strings there): the wire
// has one lexer. What a key, a scalar or a collection means against the
// compiled program — a vouch, a recorded violation, or the zero val that
// gives up — is match.go's.
//
// What the walker owes that contract is "accepted ⇒ object.ParseManifest
// accepts it too" (exactly one mapping document). Its skeleton follows
// parseNode / parseMapping / parseSequence / parseValueAfterKey and falls
// back on everything they reject — indentation jumps inside a mapping,
// non-entry lines, duplicate keys — so a walk to the end implies the
// body decodes (the routing scan stops at the prologue and promises
// less: match.go). On top it refuses what it does not judge raw:
// anchors, aliases, tags, flow collections beyond the encoder's empty
// {} / [], block scalars, quoted keys, multi-document streams, CR and
// tab bytes, and scalars whose decoded type is ambiguous.

// yLine is one logical line: its indentation and its content as
// yaml.SplitLine delimits it (empty for a blank or comment-only line).
type yLine struct {
	indent int
	c      []byte
}

// yamlScan is a single pass over raw YAML bytes.
type yamlScan struct {
	rawMatch
	data []byte
	pos  int // byte offset of the start of the current line

	// Current-line cache: cur fills line/lineEnd for the line at pos;
	// advance moves past it.
	cached  bool
	line    yLine
	lineEnd int

	// One-shot in-place rewrite of the current line, modeling the
	// decoder's "- inner" dash stripping (parseSequence rewrites the
	// line to the item content at a deeper indent and re-parses it).
	ovActive bool
	ovAt     int
	ov       yLine
}

// ScanRawYAMLMeta extracts RawMeta from a raw YAML body's prologue: the
// walk stops when the root entry that completes apiVersion, kind and
// metadata has been walked, i.e. at the next line at the root's
// indentation (at the end of the document when one is absent). ok is
// false when the walked lines are not the start of a single mapping
// document the scanner can vouch for — the caller must fall back to
// decoding. When ok, the returned fields equal the decoded object's
// Kind/APIVersion/Namespace/Name accessors IF the body decodes via
// object.ParseManifest (zero-copy sub-slices of body; a non-string value
// comes back nil the same way the accessors return ""); whether it does
// is MatchRawYAML's to vouch for, not the scan's.
func ScanRawYAMLMeta(body []byte) (RawMeta, bool) {
	s := yamlScan{rawMatch: rawMatch{p: metaProgram}, data: body}
	l, ok := s.openDocument()
	if _, item := yaml.SeqItem(l.c); !ok || item {
		// ParseManifest rejects a sequence root; mapping refuses the rest.
		return RawMeta{}, false
	}
	if v := s.mapping(l.indent, metaRoot, 0); v == 0 || v&valPrologue == 0 && !s.closeDocument() {
		return RawMeta{}, false
	}
	return s.meta, true
}

// MatchRawYAML reports whether the program vouches for the raw YAML
// body. False means "not vouched", not "denied": JudgeRawScanned tells a
// diagnosed denial from an undecided body.
func (p *Program) MatchRawYAML(body []byte) bool {
	meta, ok := ScanRawYAMLMeta(body)
	return ok && p.MatchRawYAMLScanned(meta, body)
}

// MatchRawYAMLScanned is MatchRawYAML for a caller that already ran
// ScanRawYAMLMeta on this exact body (the enforcement point scans once
// for routing). meta MUST be the successful scan of body.
func (p *Program) MatchRawYAMLScanned(meta RawMeta, body []byte) bool {
	vs, decided := p.judgeYAML(meta, body)
	return decided && vs == nil
}

// judgeYAML is JudgeRawScanned on the YAML wire.
func (p *Program) judgeYAML(meta RawMeta, body []byte) ([]validator.Violation, bool) {
	s := yamlScan{rawMatch: rawMatch{p: p}, data: body}
	root := s.root(meta)
	l, ok := s.openDocument()
	if !ok || s.node(l, root, 0) == 0 || !s.closeDocument() {
		return nil, false
	}
	return s.out, true
}

// ---------------------------------------------------------------------
// Line cursor
// ---------------------------------------------------------------------

// cur returns the current line without consuming it; ok=false at EOF.
func (s *yamlScan) cur() (yLine, bool) {
	if s.pos >= len(s.data) {
		return yLine{}, false
	}
	if !s.cached {
		end := len(s.data)
		if i := bytes.IndexByte(s.data[s.pos:], '\n'); i >= 0 {
			end = s.pos + i
		}
		line := s.data[s.pos:end]
		l := yaml.SplitLine(line)
		s.line, s.lineEnd, s.cached = yLine{l.Indent, line[l.Start:l.End]}, end, true
	}
	if s.ovActive && s.ovAt == s.pos {
		return s.ov, true
	}
	return s.line, true
}

// advance consumes the current line. Only valid after cur().
func (s *yamlScan) advance() {
	if s.ovActive && s.ovAt == s.pos {
		s.ovActive = false
	}
	s.pos = s.lineEnd + 1
	s.cached = false
}

func (s *yamlScan) reset(m int) {
	if s.pos != m {
		s.pos = m
		s.cached = false
	}
}

func (s *yamlScan) skipBlank() {
	for {
		l, ok := s.cur()
		if !ok || len(l.c) != 0 {
			return
		}
		s.advance()
	}
}

// sep reports a document separator line ("---" or "..."), which the
// decoder honors at any indentation.
func (s *yamlScan) sep(l yLine) bool {
	return string(l.c) == "---" || string(l.c) == "..."
}

// openDocument positions the scanner at the first content line of the
// single document the scanner can vouch for: optional blank lines, one
// optional leading "---", then content. Bodies containing '\r' or '\t'
// fall back wholesale — the decoder rewrites CRLF before it splits lines,
// and tab-laid-out manifests are not worth vouching for.
func (s *yamlScan) openDocument() (yLine, bool) {
	if bytes.IndexByte(s.data, '\r') >= 0 || bytes.IndexByte(s.data, '\t') >= 0 {
		return yLine{}, false
	}
	s.skipBlank()
	l, ok := s.cur()
	if !ok || string(l.c) == "..." {
		return yLine{}, false // empty stream: ParseManifest rejects it
	}
	if string(l.c) == "---" {
		s.advance()
		s.skipBlank()
		l, ok = s.cur()
		if !ok || s.sep(l) {
			// A nil document, or the onset of a second one: either way
			// not the exactly-one-mapping stream ParseManifest wants.
			return yLine{}, false
		}
	}
	return l, true
}

// closeDocument verifies nothing but blanks (and at most one trailing
// "..." terminator) remains — any further content or a second document
// makes ParseManifest reject the stream, so a fast-pass allow must too.
func (s *yamlScan) closeDocument() bool {
	s.skipBlank()
	l, ok := s.cur()
	if !ok {
		return true
	}
	if string(l.c) == "..." {
		s.advance()
		s.skipBlank()
		_, more := s.cur()
		return !more
	}
	return false
}

// ---------------------------------------------------------------------
// Grammar walk (against node idx; structural when idx < 0)
// ---------------------------------------------------------------------

// node parses one node starting at the current (peeked) line l, as
// parseNode dispatches: a sequence, a mapping (quoted keys are
// decode-path territory), or a bare scalar line.
func (s *yamlScan) node(l yLine, idx int32, depth int) val {
	if _, item := yaml.SeqItem(l.c); item {
		return s.sequence(l.indent, idx, depth)
	}
	if e, ok := yaml.SplitEntry(l.c); ok {
		if e.Quoted {
			return 0
		}
		return s.mapping(l.indent, idx, depth)
	}
	s.advance()
	i, j := yaml.TrimSpace(l.c, 0, len(l.c))
	return s.scalar(l.c[i:j], idx)
}

// valueAfterKey parses the value of a mapping entry as
// parseValueAfterKey does: an inline rest, or a nested block at deeper
// indent (or a sequence at the key's own indent), or null.
func (s *yamlScan) valueAfterKey(rest []byte, keyIndent int, idx int32, depth int) val {
	if depth > maxRawDepth {
		return 0
	}
	if len(rest) == 0 {
		m := s.pos
		s.skipBlank()
		if l, ok := s.cur(); ok && !s.sep(l) {
			if l.indent > keyIndent {
				return s.node(l, idx, depth)
			}
			if _, item := yaml.SeqItem(l.c); item && l.indent == keyIndent {
				return s.sequence(keyIndent, idx, depth)
			}
		}
		s.reset(m)
		return s.judge(idx, token{kind: tokNull})
	}
	if c := rest[0]; c == '|' || c == '>' {
		return 0 // block scalars: decode-path territory
	}
	return s.scalar(rest, idx)
}

// mapping walks a block mapping whose keys sit at exactly indent, as
// parseMapping does (including its rejection of deeper indents and
// duplicate keys).
func (s *yamlScan) mapping(indent int, idx int32, depth int) val {
	if depth > maxRawDepth {
		return 0
	}
	mi, ok := s.mapNode(idx)
	if !ok {
		return 0
	}
	w := s.openMap(mi)
	for {
		s.skipBlank()
		l, ok := s.cur()
		if !ok || s.sep(l) || l.indent < indent {
			break
		}
		if l.indent > indent {
			return 0 // decoder: unexpected indentation
		}
		e, ok := yaml.SplitEntry(l.c)
		if !ok || e.Quoted {
			return 0
		}
		child, ok := w.member(l.c[e.KeyStart:e.KeyEnd])
		if !ok {
			return 0
		}
		s.advance()
		if !w.filled(s.valueAfterKey(l.c[e.RestStart:e.RestEnd], indent, child, depth+1)) {
			return 0
		}
		if w.done() {
			return w.close() | valPrologue
		}
	}
	return w.close()
}

// sequence walks a block sequence whose dashes sit at exactly indent, as
// parseSequence does (including its rewrite of inline items).
func (s *yamlScan) sequence(indent int, idx int32, depth int) val {
	if depth > maxRawDepth {
		return 0
	}
	item, ok := s.listItem(idx)
	if !ok {
		return 0
	}
	v := valOK | valList
	for {
		s.skipBlank()
		l, ok := s.cur()
		if !ok || s.sep(l) {
			break
		}
		at, isItem := yaml.SeqItem(l.c)
		if l.indent != indent || !isItem {
			if _, entry := yaml.SplitEntry(l.c); l.indent > indent && !entry {
				return 0 // decoder: unexpected indentation in sequence
			}
			break
		}
		var iv val
		if at == len(l.c) { // bare "-": item on following lines, or null
			s.advance()
			m := s.pos
			s.skipBlank()
			if l2, ok2 := s.cur(); ok2 && !s.sep(l2) && l2.indent > indent {
				iv = s.node(l2, item, depth+1)
			} else {
				s.reset(m)
				iv = s.judge(item, token{kind: tokNull})
			}
		} else {
			// Re-read "- inner" as inner at the deeper indent, exactly as
			// the decoder rewrites the line.
			inner := yLine{indent: indent + at, c: l.c[at:]}
			s.ovActive, s.ovAt, s.ov = true, s.pos, inner
			iv = s.node(inner, item, depth+1)
		}
		if iv == 0 {
			return 0
		}
		v |= valMember
	}
	return v
}

// ---------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------

// scalar lexes one trimmed inline value as parseScalar dispatches: empty
// (null), flow (only the encoder's empty literals are vouched for —
// collections that meet no member), quoted, anchors/aliases/tags (decode
// errors), or a plain scalar.
func (s *yamlScan) scalar(c []byte, idx int32) val {
	if len(c) == 0 {
		return s.judge(idx, token{kind: tokNull})
	}
	t := token{kind: tokString, seg: c, clean: true}
	ok := true
	switch c[0] {
	case '[', '{':
		if string(c) == "{}" {
			if mi, paired := s.mapNode(idx); paired {
				w := s.openMap(mi)
				return w.close()
			}
		} else if string(c) == "[]" {
			if _, paired := s.listItem(idx); paired {
				return valOK | valList
			}
		}
		return 0 // general flow syntax: decode path
	case '&', '*', '!':
		return 0 // decoder rejects anchors, aliases, tags
	case '"', '\'':
		t.seg, t.clean, ok = unquoteSpan(c)
	default:
		// !ok: an ambiguous literal, let the decode path type it.
		t.kind, ok = classifyPlain(c)
	}
	if !ok {
		return 0
	}
	// Unlike JSON, YAML passes raw scalar bytes through with no UTF-8
	// coercion, so clean strings stay clean even non-ASCII.
	return s.judge(idx, t)
}

// unquoteSpan vouches for a quoted scalar: ok means the whole span is
// one quoted token the decoder accepts; clean means the returned bytes
// ARE the decoded string. A backslash in a double-quoted body falls
// back entirely (escape validity and content both unknowable raw);
// doubled quotes in a single-quoted body decode but change the bytes,
// so they pass only content-free matchers.
func unquoteSpan(c []byte) (seg []byte, clean, ok bool) {
	q := c[0]
	if len(c) < 2 || c[len(c)-1] != q {
		return nil, false, false
	}
	body := c[1 : len(c)-1]
	if q == '"' {
		if bytes.IndexByte(body, '\\') >= 0 {
			return nil, false, false
		}
		return body, true, true
	}
	if bytes.IndexByte(body, '\'') >= 0 {
		return body, false, true
	}
	return body, true, true
}

// classifyPlain types a plain scalar, mirroring plainScalar's resolution
// order. ok is false for every literal whose decoded type the raw bytes
// do not prove (exponents, hex, leading '+', inf/nan, underscore digit
// groups, >18-digit numbers): those fall back.
func classifyPlain(c []byte) (kind tokKind, ok bool) {
	switch string(c) {
	case "~", "null", "Null", "NULL":
		return tokNull, true
	case "true", "True", "TRUE":
		return tokTrue, true
	case "false", "False", "FALSE":
		return tokFalse, true
	}
	if isStrictInt(c) {
		return tokInt, true
	}
	if isStrictFloat(c) {
		return tokFloat, true
	}
	d := c
	if d[0] == '+' || d[0] == '-' {
		d = d[1:]
	}
	if len(d) == 0 {
		return tokString, true // a bare sign parses as neither number
	}
	if len(d) >= 2 && d[0] == '0' && (d[1] == 'x' || d[1] == 'X') {
		return 0, false // hex int / hex float territory
	}
	if parseFloatWord(d) {
		return 0, false // inf / infinity / nan
	}
	for _, b := range d {
		switch {
		case b >= '0' && b <= '9':
		case b == '+' || b == '-' || b == '.' || b == '_' || b == 'e' || b == 'E':
		default:
			// A byte no non-hex, non-word numeric literal can contain:
			// definitely the string the raw bytes spell (the decoder
			// passes plain scalar bytes through untouched).
			return tokString, true
		}
	}
	return 0, false
}

// parseFloatWord reports the word forms strconv.ParseFloat accepts
// case-insensitively (the sign was already stripped).
func parseFloatWord(d []byte) bool {
	eqFold := func(w string) bool {
		if len(d) != len(w) {
			return false
		}
		for i := 0; i < len(w); i++ {
			if d[i]|0x20 != w[i] {
				return false
			}
		}
		return true
	}
	return eqFold("inf") || eqFold("nan") || eqFold("infinity")
}

// isStrictInt is ^-?\d{1,18}$: exactly the literals whose ParseInt
// value parseRawInt reproduces without overflow.
func isStrictInt(c []byte) bool {
	if c[0] == '-' {
		c = c[1:]
	}
	if len(c) == 0 || len(c) > maxRawNumberDigits {
		return false
	}
	for _, b := range c {
		if b < '0' || b > '9' {
			return false
		}
	}
	return true
}

// isStrictFloat is ^-?\d+\.\d+$ with <=18 total digits: guaranteed to
// ParseFloat without overflow, so the decoded value is a float64.
func isStrictFloat(c []byte) bool {
	if c[0] == '-' {
		c = c[1:]
	}
	i := 0
	for i < len(c) && c[i] >= '0' && c[i] <= '9' {
		i++
	}
	if i == 0 || i >= len(c) || c[i] != '.' {
		return false
	}
	frac := i + 1
	for frac < len(c) && c[frac] >= '0' && c[frac] <= '9' {
		frac++
	}
	digits := i + (frac - i - 1)
	return frac == len(c) && frac > i+1 && digits <= maxRawNumberDigits
}
