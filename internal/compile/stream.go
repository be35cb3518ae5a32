package compile

import (
	"repro/internal/object"
	"repro/internal/validator"
)

// This file is the JSON walker of the decode-free fast path: one
// recursive skeleton over raw request bytes, so a request it judges — an
// allowed one or an enforce-mode denial — never materializes a decoded
// document (no map[string]any, no string interning for keys, no []any
// for lists). Its tokens come from the decoder's own lexer,
// object.LexJSON — the wire has one lexer. What a key, a scalar or a
// collection means against the compiled program — a vouch, a recorded
// violation, or the zero val that gives up — is match.go's; nothing here
// knows a node's opcode or a field's name.
//
// What the walker owes that contract is "accepted ⇒ object.ParseJSON
// accepts it too", which the shared lexer gives token by token; on top
// it refuses keys whose decoded spelling the raw bytes do not prove
// (escapes, non-ASCII), bounds numbers so normalization cannot overflow,
// passes every member key through the duplicate-key window, and refuses
// trailing content.

// maxRawDepth bounds scanner recursion; deeper documents fall back to
// the decode path (encoding/json itself allows up to 10000).
const maxRawDepth = 1000

// maxRawNumberDigits bounds the mantissa digits of a number literal the
// walkers will vouch for: up to 18 integer digits always fit int64, and
// up to 18 mantissa digits with a <=2-digit exponent can never overflow
// float64 — so "walker accepted" implies "decode-path number
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

// MatchRaw reports whether the program vouches for the raw JSON body:
// the body decodes cleanly AND the decoded object passes validation. A
// false return means "not vouched", not "denied" — a diagnosed denial,
// an undecodable body and a construct the walker is conservative about
// all land there; JudgeRawScanned tells them apart.
func (p *Program) MatchRaw(body []byte) bool {
	meta, ok := ScanRawMeta(body)
	return ok && p.MatchRawScanned(meta, body)
}

// MatchRawScanned is MatchRaw for a caller that already ran ScanRawMeta
// on this exact body (the enforcement point scans once for routing):
// it skips straight to the judging walk instead of re-tokenizing the
// body for metadata. meta MUST be the successful scan of body.
func (p *Program) MatchRawScanned(meta RawMeta, body []byte) bool {
	vs, decided := p.judgeJSON(meta, body)
	return decided && vs == nil
}

// judgeJSON is JudgeRawScanned on the JSON wire.
func (p *Program) judgeJSON(meta RawMeta, body []byte) ([]validator.Violation, bool) {
	s := rawScan{rawMatch: rawMatch{p: p}, data: body}
	if s.value(s.root(meta), 0) == 0 || !s.atEnd() {
		return nil, false
	}
	return s.out, true
}

// rawScan is a single pass over raw JSON bytes.
type rawScan struct {
	rawMatch
	data []byte
	pos  int
}

func (s *rawScan) skipWS() { s.pos = object.SkipJSONSpace(s.data, s.pos) }

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
	t := object.LexJSON(s.data, s.pos)
	if !t.Plain {
		return nil, false
	}
	key := s.data[s.pos+1 : t.End-1]
	s.pos = t.End
	s.skipWS()
	if !s.eat(':') {
		return nil, false
	}
	s.skipWS()
	return key, true
}

// scalar lexes the non-collection value at s.pos with the decoder's own
// lexer. ok=false covers malformed tokens AND numbers the walker won't
// vouch for (more than maxRawNumberDigits digits, more than two exponent
// digits), which could overflow the decode path's normalization.
func (s *rawScan) scalar() (t token, ok bool) {
	l := object.LexJSON(s.data, s.pos)
	switch l.Kind {
	case object.JSONInvalid:
		return t, false
	case object.JSONString:
		t = token{kind: tokString, clean: l.Plain, seg: s.data[s.pos+1 : l.End-1]}
	case object.JSONNumber:
		if l.Num.Digits > maxRawNumberDigits || l.Num.ExpDigits > 2 {
			return t, false
		}
		t = token{kind: tokFloat, seg: s.data[s.pos:l.End]}
		if l.Num.Int {
			t.kind = tokInt
		}
	case object.JSONTrue:
		t.kind = tokTrue
	case object.JSONFalse:
		t.kind = tokFalse
	case object.JSONNull:
		t.kind = tokNull
	}
	s.pos = l.End
	return t, true
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
			if !ok || !s.note(base, hashKey(key)) || s.skipValue(depth+1) == 0 {
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
	if _, ok := s.scalar(); !ok {
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
	at := s.pos
	t, ok := s.scalar()
	if !ok {
		return 0
	}
	if v := s.admits(idx, t); v != 0 {
		return v
	}
	// Refused: the token is lexed again for refuse rather than held
	// across admits on every scalar's path.
	s.pos = at
	t, _ = s.scalar()
	return s.refuse(idx, t)
}
