package compile

// This file is the JSON grammar of the decode-free fast path: a
// tokenizer over raw request bytes and one recursive walker skeleton, so
// an ALLOWED request never materializes a decoded document (no
// map[string]any, no string interning for keys, no []any for lists —
// the dominant hot-path cost once validation itself is allocation-free).
// What a key, a scalar or a collection means against the compiled
// program — and the one-sided contract every false return carries — is
// match.go's; nothing here knows a node's opcode or a field's name.
//
// What the grammar owes that contract is "accepted ⇒ object.ParseJSON
// accepts it too": keys and strings whose decoded spelling the raw bytes
// do not prove (escape sequences, non-ASCII) are reported unclean or
// refused, numbers are bounded so normalization cannot overflow, every
// member key passes through the duplicate-key window, and trailing
// content is refused.

// maxRawDepth bounds scanner recursion; deeper documents fall back to
// the decode path (encoding/json itself allows up to 10000).
const maxRawDepth = 1000

// maxRawNumberDigits bounds the mantissa digits of a number literal the
// scanner will vouch for: up to 18 integer digits always fit int64, and
// up to 18 mantissa digits with a <=2-digit exponent can never overflow
// float64 — so "scanner accepted" implies "decode-path number
// normalization succeeds".
const maxRawNumberDigits = 18

// ScanRawMeta extracts RawMeta from a raw JSON body's prologue: the walk
// stops when the root member that completes apiVersion, kind and
// metadata closes (to the end of the body when one is absent). ok is
// false when the walked bytes are not an object the scanner can vouch
// for (malformed JSON, non-object root, escaped or non-ASCII keys,
// numbers the decode path could reject, a duplicate key) — the caller
// must fall back to decoding. When ok, the returned fields equal the
// decoded object's Kind/APIVersion/Namespace/Name accessors IF the body
// decodes via object.ParseJSON; whether it does is MatchRaw's to vouch
// for, not the scan's.
func ScanRawMeta(body []byte) (RawMeta, bool) {
	s := rawScan{rawMatch: rawMatch{p: metaProgram}, data: body}
	s.skipWS()
	if !s.have('{') {
		return RawMeta{}, false
	}
	if v := s.value(metaRoot, 0); v == 0 || v&valPrologue == 0 && !s.atEnd() {
		return RawMeta{}, false
	}
	return s.meta, true
}

// MatchRaw reports whether the raw JSON body is definitively allowed by
// the program: the body decodes cleanly AND the decoded object passes
// validation. A false return means "run the decode path", not "denied"
// — genuine violations, undecodable bodies, and constructs the scanner
// is conservative about all land there, where the classic engines
// produce the authoritative verdict and violation list.
func (p *Program) MatchRaw(body []byte) bool {
	meta, ok := ScanRawMeta(body)
	if !ok {
		return false
	}
	return p.MatchRawScanned(meta, body)
}

// MatchRawScanned is MatchRaw for a caller that already ran ScanRawMeta
// on this exact body (the enforcement point scans once for routing):
// it skips straight to the validation walk instead of re-tokenizing the
// body for metadata. meta MUST be the successful scan of body.
func (p *Program) MatchRawScanned(meta RawMeta, body []byte) bool {
	root, ok := p.rawRoot(meta)
	if !ok {
		return false
	}
	s := rawScan{rawMatch: rawMatch{p: p}, data: body}
	return s.value(root, 0) != 0 && s.atEnd()
}

// rawScan is a single pass over raw JSON bytes.
type rawScan struct {
	rawMatch
	data []byte
	pos  int
}

func (s *rawScan) skipWS() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// atEnd reports that only whitespace remains — json.Unmarshal rejects
// trailing content, so a fast-pass allow must too.
func (s *rawScan) atEnd() bool {
	s.skipWS()
	return s.pos == len(s.data)
}

func (s *rawScan) have(c byte) bool {
	return s.pos < len(s.data) && s.data[s.pos] == c
}

func (s *rawScan) eat(c byte) bool {
	if s.have(c) {
		s.pos++
		return true
	}
	return false
}

// scanKey consumes a member key string plus the following colon. A key
// whose decoded spelling the raw bytes cannot prove (escapes, non-ASCII)
// could collide with any sibling after decoding, so it is refused.
func (s *rawScan) scanKey() ([]byte, bool) {
	if !s.have('"') {
		return nil, false
	}
	key, clean, ok := s.scanString()
	if !ok || !clean {
		return nil, false
	}
	s.skipWS()
	if !s.eat(':') {
		return nil, false
	}
	s.skipWS()
	return key, true
}

// scanString consumes a string token (opening quote at s.pos) and
// returns the raw bytes between the quotes. clean means the bytes ARE
// the decoded string: no escape sequences and no bytes outside
// printable ASCII (json.Unmarshal coerces invalid UTF-8, so non-ASCII
// raw bytes cannot be trusted to equal the decoded form).
func (s *rawScan) scanString() (seg []byte, clean, ok bool) {
	s.pos++ // opening quote
	start := s.pos
	clean = true
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			seg = s.data[start:s.pos]
			s.pos++
			return seg, clean, true
		case c == '\\':
			clean = false
			s.pos++
			if s.pos >= len(s.data) {
				return nil, false, false
			}
			switch s.data[s.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos++
			case 'u':
				s.pos++
				if s.pos+4 > len(s.data) {
					return nil, false, false
				}
				for i := 0; i < 4; i++ {
					if !isHexDigit(s.data[s.pos+i]) {
						return nil, false, false
					}
				}
				s.pos += 4
			default:
				return nil, false, false
			}
		case c < 0x20:
			// Raw control characters are invalid JSON.
			return nil, false, false
		default:
			if c >= 0x80 {
				clean = false
			}
			s.pos++
		}
	}
	return nil, false, false
}

func isHexDigit(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// scanNumber consumes a number token. isInt means the literal has no
// fraction or exponent, so it parses exactly as int64 (the digit bound
// guarantees it fits). ok=false covers malformed literals AND literals
// the scanner won't vouch for (too many digits, >2 exponent digits) —
// those could overflow the decode path's normalization.
func (s *rawScan) scanNumber() (seg []byte, isInt, ok bool) {
	start := s.pos
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	digits := 0
	if s.pos >= len(s.data) {
		return nil, false, false
	}
	switch c := s.data[s.pos]; {
	case c == '0':
		s.pos++
		digits++
		// JSON forbids leading zeros: "0" may only be followed by
		// '.', 'e', or a delimiter.
		if s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
			return nil, false, false
		}
	case c >= '1' && c <= '9':
		for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
			s.pos++
			digits++
		}
	default:
		return nil, false, false
	}
	isInt = true
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		isInt = false
		s.pos++
		fracStart := s.pos
		for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
			s.pos++
			digits++
		}
		if s.pos == fracStart {
			return nil, false, false
		}
	}
	expDigits := 0
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		isInt = false
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		expStart := s.pos
		for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
			s.pos++
			expDigits++
		}
		if s.pos == expStart {
			return nil, false, false
		}
	}
	if digits > maxRawNumberDigits || expDigits > 2 {
		return nil, false, false
	}
	return s.data[start:s.pos], isInt, true
}

// lit consumes an exact literal ("true", "false", "null").
func (s *rawScan) lit(w string) bool {
	if s.pos+len(w) > len(s.data) || string(s.data[s.pos:s.pos+len(w)]) != w {
		return false
	}
	s.pos += len(w)
	return true
}

// scalar lexes the non-collection value at s.pos.
func (s *rawScan) scalar() (t token, ok bool) {
	switch s.data[s.pos] {
	case '"':
		t.kind = tokString
		t.seg, t.clean, ok = s.scanString()
	case 't':
		t.kind, ok = tokTrue, s.lit("true")
	case 'f':
		t.kind, ok = tokFalse, s.lit("false")
	case 'n':
		t.kind, ok = tokNull, s.lit("null")
	default:
		var isInt bool
		t.seg, isInt, ok = s.scanNumber()
		t.kind = tokFloat
		if isInt {
			t.kind = tokInt
		}
	}
	return t, ok
}

// skipValue structurally consumes one value of any shape, validating it
// strictly enough that acceptance implies the decode path would accept
// it too (including number normalizability). It is value for a subtree
// no node judges and no required check measures, without the per-member
// bookkeeping.
func (s *rawScan) skipValue(depth int) val {
	if depth > maxRawDepth {
		return 0
	}
	s.skipWS()
	if s.pos >= len(s.data) {
		return 0
	}
	switch s.data[s.pos] {
	case '{':
		s.pos++
		s.skipWS()
		if s.eat('}') {
			return valOK
		}
		base := s.nkeys
		for {
			key, ok := s.scanKey()
			if !ok || !s.note(base, key) || s.skipValue(depth+1) == 0 {
				return 0
			}
			s.skipWS()
			if s.eat(',') {
				s.skipWS()
				continue
			}
			if !s.eat('}') {
				return 0
			}
			s.nkeys = base
			return valOK
		}
	case '[':
		s.pos++
		s.skipWS()
		if s.eat(']') {
			return valOK
		}
		for {
			if s.skipValue(depth+1) == 0 {
				return 0
			}
			s.skipWS()
			if s.eat(',') {
				continue
			}
			if !s.eat(']') {
				return 0
			}
			return valOK
		}
	}
	// scalar's dispatch without building a token nobody will judge.
	var ok bool
	switch s.data[s.pos] {
	case '"':
		_, _, ok = s.scanString()
	case 't':
		ok = s.lit("true")
	case 'f':
		ok = s.lit("false")
	case 'n':
		ok = s.lit("null")
	default:
		_, _, ok = s.scanNumber()
	}
	if !ok {
		return 0
	}
	return valOK
}

// value walks one value against node idx; idx < 0, or a collection
// whose members match.go says are walked structurally, is skipValue's.
func (s *rawScan) value(idx int32, depth int) val {
	if idx < 0 {
		return s.skipValue(depth)
	}
	if depth > maxRawDepth {
		return 0
	}
	s.skipWS()
	if s.pos >= len(s.data) {
		return 0
	}
	switch s.data[s.pos] {
	case '{':
		mi, ok := s.mapNode(idx)
		if !ok {
			return 0
		}
		if mi < 0 {
			return s.skipValue(depth)
		}
		w := s.openMap(mi)
		s.pos++
		s.skipWS()
		if s.eat('}') {
			return w.close()
		}
		for {
			key, ok := s.scanKey()
			if !ok {
				return 0
			}
			child, ok := w.member(key)
			if !ok || !w.filled(s.value(child, depth+1)) {
				return 0
			}
			if w.done() {
				return w.close() | valPrologue
			}
			s.skipWS()
			if s.eat(',') {
				s.skipWS()
				continue
			}
			if !s.eat('}') {
				return 0
			}
			return w.close()
		}
	case '[':
		item, ok := s.listItem(idx)
		if !ok {
			return 0
		}
		if item < 0 {
			return s.skipValue(depth)
		}
		s.pos++
		s.skipWS()
		if s.eat(']') {
			return valOK | valList
		}
		for {
			if s.value(item, depth+1) == 0 {
				return 0
			}
			s.skipWS()
			if s.eat(',') {
				continue
			}
			if !s.eat(']') {
				return 0
			}
			return valOK | valList | valMember
		}
	}
	t, ok := s.scalar()
	if !ok {
		return 0
	}
	return s.admits(idx, t)
}
