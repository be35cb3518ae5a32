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
// grammar is the decoder's own (internal/yaml's LexLine, SplitEntry,
// SeqItem, TrimSpace, on byte spans here and on strings there): the wire
// has one lexer. The line cursor lays out each line and finds its end in
// one LexLine pass over the body. What a key, a scalar or a collection
// means against the compiled program — a vouch, a recorded violation, or
// the zero val that gives up — is match.go's.
//
// What the walker owes that contract is "accepted ⇒ object.ParseManifest
// accepts it too" (exactly one mapping document). Its skeleton follows
// parseNode / parseMapping / parseSequence / parseValueAfterKey and falls
// back on everything they reject — indentation jumps inside a mapping,
// non-entry lines, duplicate keys — so a walk to the end implies the
// body decodes (the routing scan stops at the prologue and promises
// less: match.go). Scalars are the decoder's too: yaml.LexScalar types
// every inline value for both, every escape of a double-quoted one is
// checked with yaml.AppendUnquoted, in every walk, and match.go decodes
// an escaped value with it where a check reads the content. On top the walker refuses what it does not judge
// raw: anchors, aliases, tags, flow collections beyond the encoder's
// empty {} / [], block scalars, quoted keys, multi-document streams, CR
// and tab bytes, and plain scalars whose decoded type is ambiguous.

// yLine is one logical line: its indentation and its content as
// yaml.LexLine delimits it (empty for a blank or comment-only line).
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
		l, end := yaml.LexLine(s.data, s.pos)
		s.line, s.lineEnd, s.cached = yLine{l.Indent, s.data[s.pos+l.Start : s.pos+l.End]}, end, true
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

// scalar judges one trimmed inline value: flow (only the encoder's empty
// literals are vouched for — collections that meet no member), or the
// token yamlToken makes of it.
func (s *yamlScan) scalar(c []byte, idx int32) val {
	t, flow, ok := yamlToken(c)
	switch {
	case !flow:
	case string(c) == "{}":
		if mi, paired := s.mapNode(idx); paired {
			w := s.openMap(mi)
			return w.close()
		}
	case string(c) == "[]":
		if _, paired := s.listItem(idx); paired {
			return valOK | valList
		}
	}
	if !ok {
		return 0 // general flow syntax, or a value the decode path types
	}
	// Unlike JSON, YAML passes raw scalar bytes through with no UTF-8
	// coercion, so clean strings stay clean even non-ASCII.
	return s.judge(idx, t)
}

// yamlToken is the token of one trimmed inline value as yaml.LexScalar
// types it, the decoder's own lexer: empty (null), a quoted scalar whose
// escapes decode — checked with the decoder's yaml.AppendUnquoted, in
// every walk; match.go decodes an unclean body with it where a check
// reads its content — or a proven plain scalar. ok is false for the rest,
// which the decode path types: flow collections (flow is true), anchors,
// aliases and tags (decode errors), an unterminated quote, and an
// undecided plain scalar.
func yamlToken(c []byte) (t token, flow, ok bool) {
	l := yaml.LexScalar(c)
	t = token{kind: tokString, seg: c, clean: true}
	switch l.Kind {
	case yaml.ScalarFlow:
		return t, true, false
	case yaml.ScalarQuoted:
		t.seg, t.clean, t.quote = c[1:len(c)-1], l.Clean, l.Quote
		if !t.clean && t.quote == '"' {
			_, _, bad := yaml.AppendUnquoted(nil, t.quote, t.seg)
			return t, false, bad == 0
		}
	case yaml.ScalarEmpty, yaml.ScalarNull:
		t.kind = tokNull
	case yaml.ScalarTrue:
		t.kind = tokTrue
	case yaml.ScalarFalse:
		t.kind = tokFalse
	case yaml.ScalarInt:
		t.kind = tokInt
	case yaml.ScalarFloat:
		t.kind = tokFloat
	case yaml.ScalarString:
	default:
		return t, false, false
	}
	return t, false, true
}
