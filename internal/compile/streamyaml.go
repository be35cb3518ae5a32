package compile

import "bytes"

// This file is the block-YAML grammar of the decode-free fast path,
// fused on the grammar of the hand-rolled internal/yaml decoder: a
// cursor-based line reader and one recursive walker skeleton over raw
// manifest bytes, so an ALLOWED YAML request never materializes lines,
// strings, or a decoded document. What a key, a scalar or a collection
// means against the compiled program — and the one-sided contract every
// zero return carries — is match.go's, shared with the JSON wire.
//
// What the grammar owes that contract is "accepted ⇒ object.ParseManifest
// accepts it too" (exactly one mapping document, nothing the scanner
// cannot mirror byte-for-byte). Anchors, aliases, tags, flow collections
// (beyond the encoder's empty {} / [] literals), block scalars, quoted
// keys, multi-document streams, duplicate keys and scalars whose decoded
// type is ambiguous are all refused.
//
// The scanner mirrors decodeStream / parseMapping / parseSequence /
// parseValueAfterKey structurally: the line reader computes {indent,
// comment-stripped content span} on demand (no line slice), and every
// construct the decoder would reject — indentation jumps inside a
// mapping, non-entry lines, duplicate keys — makes the scan fall back,
// so a successful walk to the end still implies the body decodes cleanly
// (the routing scan stops at the prologue and promises less: match.go).

// yLine is one logical line: its indentation and the content span after
// indent stripping, comment stripping, and right-trimming. start == end
// means the line is blank (empty or comment-only).
type yLine struct {
	indent     int
	start, end int
}

// Entry classification for a content line, mirroring isMappingEntry.
const (
	entryNone   = iota // not a mapping entry: a scalar (or garbage) line
	entryPlain         // plain-key mapping entry — the vouchable kind
	entryQuoted        // quoted-key mapping entry — decode-path territory
)

// yamlScan is a single pass over raw YAML bytes.
type yamlScan struct {
	rawMatch
	data []byte
	pos  int // byte offset of the start of the current line

	// Current-line cache: parseLine fills line/lineEnd for the line at
	// pos; advance moves past it.
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
	if !ok || s.dashLine(l) || s.entryKind(l) != entryPlain {
		// Non-mapping root (sequence, scalar, quoted key): ParseManifest
		// rejects or the scanner cannot vouch — decode path decides.
		return RawMeta{}, false
	}
	if v := s.mapping(l.indent, metaRoot, 0); v == 0 || v&valPrologue == 0 && !s.closeDocument() {
		return RawMeta{}, false
	}
	return s.meta, true
}

// MatchRawYAML reports whether the raw YAML body is definitively allowed
// by the program. False means "run the decode path", not "denied".
func (p *Program) MatchRawYAML(body []byte) bool {
	meta, ok := ScanRawYAMLMeta(body)
	if !ok {
		return false
	}
	return p.MatchRawYAMLScanned(meta, body)
}

// MatchRawYAMLScanned is MatchRawYAML for a caller that already ran
// ScanRawYAMLMeta on this exact body (the enforcement point scans once
// for routing). meta MUST be the successful scan of body.
func (p *Program) MatchRawYAMLScanned(meta RawMeta, body []byte) bool {
	root, ok := p.rawRoot(meta)
	if !ok {
		return false
	}
	s := yamlScan{rawMatch: rawMatch{p: p}, data: body}
	l, ok := s.openDocument()
	return ok && s.node(l, root, 0) != 0 && s.closeDocument()
}

// ---------------------------------------------------------------------
// Line cursor
// ---------------------------------------------------------------------

// parseLine computes the logical line at s.pos, mirroring splitLine:
// indent = leading spaces; a line whose body is empty or starts with
// '#' is blank; otherwise the trailing comment is stripped with the
// decoder's quote tracking and the content right-trimmed.
func (s *yamlScan) parseLine() {
	o := s.pos
	end := len(s.data)
	if i := bytes.IndexByte(s.data[o:], '\n'); i >= 0 {
		end = o + i
	}
	s.lineEnd = end
	i := o
	for i < end && s.data[i] == ' ' {
		i++
	}
	l := yLine{indent: i - o, start: i, end: i}
	if i == end || s.data[i] == '#' {
		s.line = l
		return
	}
	ce := end
	inS, inD := false, false
scan:
	for j := i; j < end; j++ {
		switch s.data[j] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS && (j == i || s.data[j-1] != '\\') {
				inD = !inD
			}
		case '#':
			if !inS && !inD && j > i && s.data[j-1] == ' ' {
				ce = j
				break scan
			}
		}
	}
	for ce > i && s.data[ce-1] == ' ' {
		ce--
	}
	l.end = ce
	s.line = l
}

// cur returns the current line without consuming it; ok=false at EOF.
func (s *yamlScan) cur() (yLine, bool) {
	if s.pos >= len(s.data) {
		return yLine{}, false
	}
	if !s.cached {
		s.parseLine()
		s.cached = true
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

func (s *yamlScan) mark() int { return s.pos }

func (s *yamlScan) reset(m int) {
	if s.pos != m {
		s.pos = m
		s.cached = false
	}
}

func (s *yamlScan) setOverride(l yLine) {
	s.ovActive, s.ovAt, s.ov = true, s.pos, l
}

func (s *yamlScan) skipBlank() {
	for {
		l, ok := s.cur()
		if !ok || l.start != l.end {
			return
		}
		s.advance()
	}
}

// sep reports a document separator line ("---" or "..."), which the
// decoder honors at any indentation.
func (s *yamlScan) sep(l yLine) bool {
	c := s.data[l.start:l.end]
	return string(c) == "---" || string(c) == "..."
}

func (s *yamlScan) sepIs(l yLine, w string) bool {
	return string(s.data[l.start:l.end]) == w
}

// openDocument positions the scanner at the first content line of the
// single document the scanner can vouch for: optional blank lines, one
// optional leading "---", then content. Bodies containing '\r' or '\t'
// fall back wholesale — the decoder's CRLF rewrite and tab-sensitive
// comment rules are not worth mirroring byte-for-byte.
func (s *yamlScan) openDocument() (yLine, bool) {
	if bytes.IndexByte(s.data, '\r') >= 0 || bytes.IndexByte(s.data, '\t') >= 0 {
		return yLine{}, false
	}
	s.skipBlank()
	l, ok := s.cur()
	if !ok {
		return yLine{}, false // empty stream: ParseManifest rejects it
	}
	if s.sepIs(l, "...") {
		return yLine{}, false
	}
	if s.sepIs(l, "---") {
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
	if s.sepIs(l, "...") {
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

// dashLine mirrors the decoder's sequence-start test: "-" alone or "- ".
func (s *yamlScan) dashLine(l yLine) bool {
	c := s.data[l.start:l.end]
	return len(c) > 0 && c[0] == '-' && (len(c) == 1 || c[1] == ' ')
}

func (s *yamlScan) entryKind(l yLine) int {
	_, _, _, _, k := s.splitKey(l)
	return k
}

// splitKey mirrors the decoder's splitKey over the content span:
// entryPlain returns the key span [ks,ke) and the inline rest span
// [rs,re) (rs==re when the value continues on following lines). Quoted
// keys are classified but never vouched for; anything splitKey would
// reject is entryNone (the decoder then treats the line as a scalar).
func (s *yamlScan) splitKey(l yLine) (ks, ke, rs, re, kind int) {
	c := s.data[l.start:l.end]
	if len(c) == 0 {
		return 0, 0, 0, 0, entryNone
	}
	if q := c[0]; q == '"' || q == '\'' {
		i := 1
		for i < len(c) {
			if c[i] == q {
				if q == '\'' && i+1 < len(c) && c[i+1] == '\'' {
					i += 2
					continue
				}
				break
			}
			if q == '"' && c[i] == '\\' {
				i += 2
				continue
			}
			i++
		}
		if i >= len(c) {
			return 0, 0, 0, 0, entryNone
		}
		if j := i + 1; j < len(c) && c[j] == ':' && (j+1 == len(c) || c[j+1] == ' ') {
			return 0, 0, 0, 0, entryQuoted
		}
		return 0, 0, 0, 0, entryNone
	}
	depth := 0
	for i := 0; i < len(c); i++ {
		switch c[i] {
		case '\'', '"':
			// A quote inside a plain key aborts splitKey in the decoder.
			return 0, 0, 0, 0, entryNone
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case ':':
			if depth == 0 && (i+1 == len(c) || c[i+1] == ' ') {
				ke := i
				for ke > 0 && c[ke-1] == ' ' {
					ke--
				}
				if ke == 0 {
					return 0, 0, 0, 0, entryNone
				}
				rs := i + 1
				for rs < len(c) && c[rs] == ' ' {
					rs++
				}
				return l.start, l.start + ke, l.start + rs, l.end, entryPlain
			}
		}
	}
	return 0, 0, 0, 0, entryNone
}

// node parses one node starting at the current (peeked) line l,
// mirroring parseNode's dispatch: sequence, mapping, or a bare scalar
// line.
func (s *yamlScan) node(l yLine, idx int32, depth int) val {
	if s.dashLine(l) {
		return s.sequence(l.indent, idx, depth)
	}
	switch s.entryKind(l) {
	case entryPlain:
		return s.mapping(l.indent, idx, depth)
	case entryQuoted:
		return 0
	}
	s.advance()
	return s.scalarSpan(l.start, l.end, idx)
}

// valueAfterKey parses the value of a mapping entry, mirroring
// parseValueAfterKey: an inline rest, or a nested block at deeper
// indent (or a sequence at the key's own indent), or null.
func (s *yamlScan) valueAfterKey(rs, re, keyIndent int, idx int32, depth int) val {
	if depth > maxRawDepth {
		return 0
	}
	if rs == re {
		m := s.mark()
		s.skipBlank()
		if l, ok := s.cur(); ok && !s.sep(l) {
			if l.indent > keyIndent {
				return s.node(l, idx, depth)
			}
			if l.indent == keyIndent && s.dashLine(l) {
				return s.sequence(keyIndent, idx, depth)
			}
		}
		s.reset(m)
		return s.admits(idx, token{kind: tokNull})
	}
	if c := s.data[rs]; c == '|' || c == '>' {
		return 0 // block scalars: decode-path territory
	}
	return s.scalarSpan(rs, re, idx)
}

// mapping walks a block mapping whose keys sit at exactly indent,
// mirroring parseMapping (including its rejection of deeper indents and
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
		ks, ke, rs, re, ek := s.splitKey(l)
		if ek != entryPlain {
			return 0
		}
		child, ok := w.member(s.data[ks:ke])
		if !ok {
			return 0
		}
		s.advance()
		if !w.filled(s.valueAfterKey(rs, re, indent, child, depth+1)) {
			return 0
		}
		if w.done() {
			return w.close() | valPrologue
		}
	}
	return w.close()
}

// sequence walks a block sequence whose dashes sit at exactly indent,
// mirroring parseSequence (including the dash-stripping rewrite for
// inline items).
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
		if l.indent != indent || !s.dashLine(l) {
			if l.indent > indent && s.entryKind(l) == entryNone && !s.dashLine(l) {
				return 0 // decoder: unexpected indentation in sequence
			}
			break
		}
		var iv val
		if l.end-l.start == 1 { // bare "-": item on following lines, or null
			s.advance()
			m := s.mark()
			s.skipBlank()
			if l2, ok2 := s.cur(); ok2 && !s.sep(l2) && l2.indent > indent {
				iv = s.node(l2, item, depth+1)
			} else {
				s.reset(m)
				iv = s.admits(item, token{kind: tokNull})
			}
		} else {
			j := l.start + 2
			for j < l.end && s.data[j] == ' ' {
				j++
			}
			if j == l.end {
				s.advance()
				iv = s.admits(item, token{kind: tokNull})
			} else {
				// Rewrite "- inner" to inner at the deeper indent and
				// re-parse it, exactly as the decoder mutates the line.
				inner := yLine{indent: l.indent + (j - l.start), start: j, end: l.end}
				s.setOverride(inner)
				iv = s.node(inner, item, depth+1)
			}
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

// scalarSpan lexes one inline value span, mirroring parseScalar's
// dispatch: flow (only the encoder's empty literals are vouched for —
// collections that meet no member), quoted, anchors/aliases/tags
// (decode errors), or a plain scalar.
func (s *yamlScan) scalarSpan(start, end int, idx int32) val {
	c := s.data[start:end]
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
	return s.admits(idx, t)
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
