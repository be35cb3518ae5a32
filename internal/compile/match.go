package compile

import (
	"math/bits"

	"repro/internal/object"
	"repro/internal/schema"
	"repro/internal/validator"
)

// This file is the program side of the decode-free fast path: every
// policy decision a raw walk takes, written once for both wires. The
// wire files (stream.go for JSON, streamyaml.go for block YAML) hold
// grammar only — they lex scalars into tokens, find where collections
// open and close, and ask this file what each construct means against
// the compiled node table.
//
// The contract is deliberately one-sided: a walk succeeds only when the
// request is DEFINITIVELY allowed — the body is one the decode path
// accepts (no duplicate keys, no number it could reject, nothing the
// lexer cannot spell byte-for-byte) and the decoded document would pass
// both the compiled and the interpreted engine. Every other outcome — a
// genuine violation, a malformed body, a construct that is merely
// undecidable without decoding — is the same zero val, and the caller
// falls back to decode + Validate, which produces the authoritative
// verdict and violation list. The raw walk therefore only decides how
// much work an allowed request costs; a wrong vouch is a security bug,
// a missed one is a slower request. Pinned by FuzzRawEquivalence /
// FuzzRawYAMLEquivalence and the robustness matrix on both wires.

// RawMeta is the routing metadata extracted from raw JSON bytes: what
// the enforcement point needs to resolve a workload policy before — or
// instead of — decoding the body. Fields are sub-slices of the scanned
// body (zero-copy) and mirror the decoded accessors exactly: a field
// whose value is not a plain string comes back nil, the same way
// object.Object's accessors return "".
type RawMeta struct {
	Kind       []byte
	APIVersion []byte
	Namespace  []byte
	Name       []byte
}

// val is what a walk consumed, as bit flags. Zero means "fall back to
// the decode path"; every successful walk sets valOK, and a collection
// walked against a node adds the facts a parent's required-field check
// asks about it. Only opMap / opList children are ever measured
// (reqRef.kind), and mapNode / listItem never turn those structural, so
// a structural walk owes no facts.
type val uint8

const (
	valOK     val = 1 << iota
	valMap        // the value was a mapping
	valList       // the value was a sequence
	valMember     // ... with at least one member / item
	valEff        // ... with a member that survives the server-owned-key scrub
)

// tokKind classifies a lexed scalar by the type the decoder gives it.
type tokKind uint8

const (
	tokNull tokKind = iota
	tokFalse
	tokTrue
	tokInt   // fits int64: at most maxRawNumberDigits digits
	tokFloat // decodes to a float64 without overflow
	tokString
)

// token is one scalar as a wire lexer hands it over. seg is the literal
// for numbers and the bytes between the quotes (or the plain scalar) for
// strings; clean means seg IS the decoded string.
type token struct {
	kind  tokKind
	clean bool
	seg   []byte
}

// rawMatch is the program side of one raw walk; each wire scanner
// embeds one.
type rawMatch struct {
	p    *Program
	meta RawMeta // filled by opCapture nodes (metaProgram walks only)
	keyWindow
}

// rawRoot is the prologue of a raw match: the kind root a scanned body
// is walked against. Unknown or absent kinds and disallowed apiVersions
// are decode-path denials.
func (p *Program) rawRoot(meta RawMeta) (int32, bool) {
	kp, ok := p.kinds[string(meta.Kind)]
	if !ok {
		return 0, false
	}
	if len(kp.apiVersions) > 0 && len(meta.APIVersion) > 0 &&
		!kp.apiVersions[string(meta.APIVersion)] {
		return 0, false
	}
	return kp.root, true
}

// mapNode pairs a mapping with the node it was found under and returns
// the node its members are walked against, -1 for structurally: only
// opMap walks matched; a wildcard, a capture or an unlocked type-dict
// scalar admits any well-formed mapping; every other pairing is a
// decoded deny.
func (m *rawMatch) mapNode(idx int32) (int32, bool) {
	if idx < 0 {
		return -1, true
	}
	n := &m.p.nodes[idx]
	switch n.op {
	case opMap:
		// >64 required children needs the direct-lookup sweep over a
		// materialized map; exotic enough for the decode path.
		return idx, n.flags&flagReqMany == 0
	case opAny, opAllow, opCapture:
		return -1, true
	case opScalar:
		sc := &m.p.scalars[n.scalar]
		return -1, sc.typ == schema.TokDict && !sc.locked
	}
	return -1, false
}

// listItem is mapNode for a sequence: the node its items are walked
// against.
func (m *rawMatch) listItem(idx int32) (int32, bool) {
	if idx < 0 {
		return -1, true
	}
	n := &m.p.nodes[idx]
	switch n.op {
	case opList:
		return n.item, true
	case opAny, opAllow, opCapture:
		return -1, true
	case opScalar:
		sc := &m.p.scalars[n.scalar]
		return -1, sc.typ == schema.TokList && !sc.locked
	case opMap:
		return -1, n.flags&flagOpen != 0
	}
	return -1, false
}

// mapWalk is one mapping being walked: the wire calls member for every
// key, filled with what that member's value walk returned, and close
// when the mapping ends.
type mapWalk struct {
	m    *rawMatch
	n    *node // nil: structural walk
	base int   // this scope's start in the duplicate-key window
	seen uint64
	req  *reqRef // required check awaiting the value of the last member
	got  val
}

// openMap starts the walk of a mapping against mapNode's answer.
func (m *rawMatch) openMap(idx int32) mapWalk {
	w := mapWalk{m: m, base: m.nkeys, got: valOK | valMap}
	if idx >= 0 {
		w.n = &m.p.nodes[idx]
	}
	return w
}

// member admits one key and returns the node its value is walked
// against (-1: structurally — a server-owned key the validators never
// see, or an unlisted key of an open node).
func (w *mapWalk) member(key []byte) (int32, bool) {
	if !w.m.note(w.base, key) {
		return 0, false
	}
	w.got |= valMember
	n := w.n
	if n == nil {
		return -1, true
	}
	if n.flags&(flagRoot|flagMeta) != 0 && skip(n.flags, string(key)) {
		return -1, true
	}
	w.got |= valEff
	fields := w.m.p.fields
	lo, hi := n.fieldsOff, n.fieldsEnd
	for lo < hi {
		mid := (lo + hi) / 2
		f := &fields[mid]
		switch c := compareBytesString(key, f.name); {
		case c > 0:
			lo = mid + 1
		case c < 0:
			hi = mid
		default:
			if f.reqBit != 0 {
				w.seen |= f.reqBit
				w.req = &w.m.p.reqs[n.reqOff+int32(bits.TrailingZeros64(f.reqBit))]
			}
			return f.node, true
		}
	}
	return -1, n.flags&flagOpen != 0
}

// filled takes the walk of the last member's value and reports whether
// the mapping may go on: the value was admitted, and if the member is a
// required field it is not an empty {} / [] stand-in (requiredEmpty in
// the decoded engines; the metadata child is measured after the scrub).
func (w *mapWalk) filled(v val) bool {
	r := w.req
	w.req = nil
	if v == 0 || r == nil {
		return v != 0
	}
	switch r.kind {
	case validator.KindMap:
		if r.flags&flagMeta != 0 {
			return v&valMap == 0 || v&valEff != 0
		}
		return v&valMap == 0 || v&valMember != 0
	case validator.KindList:
		return v&valList == 0 || v&valMember != 0
	}
	return true
}

// close ends the mapping: every required field must have been seen.
func (w *mapWalk) close() val {
	w.m.nkeys = w.base
	if w.n != nil && w.seen != w.n.reqBits {
		return 0
	}
	return w.got
}

// admits judges one scalar against a node, mirroring scalarOK on the
// value the decode path would produce.
func (m *rawMatch) admits(idx int32, t token) val {
	if idx < 0 {
		return valOK
	}
	n := &m.p.nodes[idx]
	ok := false
	switch n.op {
	case opAny, opAllow:
		ok = true
	case opScalar:
		sc := &m.p.scalars[n.scalar]
		switch t.kind {
		case tokString:
			ok = rawStringOK(sc, t.seg, t.clean)
		case tokInt, tokFloat:
			ok = rawNumberOK(sc, t.seg, t.kind == tokInt)
		case tokNull:
			ok = rawNullOK(sc)
		default:
			ok = rawBoolOK(sc, t.kind == tokTrue)
		}
	case opMap:
		ok = n.flags&flagOpen != 0
	case opCapture:
		ok = m.capture(n.item, t)
	}
	if ok {
		return valOK
	}
	return 0
}

// capture stores a string into the RawMeta field slot names. A
// non-string reads as "" through the decoded accessor, so it is admitted
// and leaves the field nil; a string the lexer cannot spell
// byte-for-byte cannot be promised equal to the accessor and fails the
// walk.
func (m *rawMatch) capture(slot int32, t token) bool {
	if t.kind != tokString {
		return true
	}
	switch slot {
	case metaAPIVersion:
		m.meta.APIVersion = t.seg
	case metaKind:
		m.meta.Kind = t.seg
	case metaName:
		m.meta.Name = t.seg
	case metaNamespace:
		m.meta.Namespace = t.seg
	}
	return t.clean
}

// ---------------------------------------------------------------------
// The routing-metadata scan is a walk against this built-in program, so
// a successful scan promises what a successful match promises — the body
// decodes — and its captures equal the decoded accessors. Compile never
// emits opCapture or flagOpen.
// ---------------------------------------------------------------------

// metaProgram's node indices. The first four are capture nodes and
// double as the RawMeta field each one's item names.
const (
	metaAPIVersion int32 = iota
	metaKind
	metaName
	metaNamespace
	metaMetadata
	metaRoot
)

var metaProgram = &Program{
	nodes: []node{
		metaAPIVersion: {op: opCapture, item: metaAPIVersion},
		metaKind:       {op: opCapture, item: metaKind},
		metaName:       {op: opCapture, item: metaName},
		metaNamespace:  {op: opCapture, item: metaNamespace},
		metaMetadata:   {op: opMap, flags: flagOpen, fieldsOff: 0, fieldsEnd: 2},
		metaRoot:       {op: opMap, flags: flagOpen, fieldsOff: 2, fieldsEnd: 5},
	},
	fields: []fieldRef{ // each node's segment sorted by name, as member searches it
		{name: "name", node: metaName}, {name: "namespace", node: metaNamespace},
		{name: "apiVersion", node: metaAPIVersion}, {name: "kind", node: metaKind}, {name: "metadata", node: metaMetadata},
	},
}

// ---------------------------------------------------------------------
// Duplicate-key window
// ---------------------------------------------------------------------

// rawKeyStack sizes the duplicate-key window: the sum of member keys
// across all OPEN mapping scopes at any instant. Documents exceeding it
// fall back to the decode path (vanishingly rare for real manifests) —
// growing the window would heap-allocate on every scan.
const rawKeyStack = 64

// keyWindow is the duplicate-key detection stack: a hash of every
// member key of every mapping scope currently open, each scope
// delimited by the base index its opener captured. Both decoders reject
// duplicate keys (last-writer-wins decoding would let an early
// occurrence smuggle a sibling value past a validator that only sees
// the decoded map), so a walk must fall back on them to keep "raw allow
// ⇒ body decodes" true. Hashes (not byte slices) keep the window free
// of pointers, so it lives in the scanner struct without forcing a heap
// allocation per scan: equal keys always collide (no duplicate is ever
// missed), and a collision between distinct keys merely falls back
// conservatively.
type keyWindow struct {
	nkeys int
	khash [rawKeyStack]uint32
}

// hashKey is FNV-1a over the key bytes.
func hashKey(key []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

// note records one member key of the scope opened at base and reports
// whether the walk may proceed: false on a (possible) duplicate and on
// a full window.
func (k *keyWindow) note(base int, key []byte) bool {
	h := hashKey(key)
	for _, seen := range k.khash[base:k.nkeys] {
		if seen == h {
			return false
		}
	}
	if k.nkeys >= rawKeyStack {
		return false
	}
	k.khash[k.nkeys] = h
	k.nkeys++
	return true
}

// compareBytesString is bytes.Compare(b, []byte(s)) without the
// conversion.
func compareBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------
// Scalar matchers
// ---------------------------------------------------------------------

// rawStringOK mirrors scalarOK for a string whose decoded form is seg
// when clean; non-clean strings only match matchers that are
// content-independent (type string).
func rawStringOK(sc *scalar, seg []byte, clean bool) bool {
	switch sc.kind {
	case scalarExact:
		return clean && string(seg) == sc.exact
	case scalarSet:
		return clean && sc.strings[string(seg)]
	case scalarType:
		return rawStringTypeMatches(sc.typ, seg, clean)
	}
	if sc.locked {
		return clean && sc.strings[string(seg)]
	}
	if sc.typ != "" && rawStringTypeMatches(sc.typ, seg, clean) {
		return true
	}
	if !clean {
		return false
	}
	if sc.strings[string(seg)] {
		return true
	}
	for _, re := range sc.regexps {
		if re.Match(seg) {
			return true
		}
	}
	return false
}

// rawStringTypeMatches mirrors validator.TypeMatches for string values:
// the byte grammars below are exactly its intValueRe / floatValueRe /
// ipValueRe and bool constants (equivalence pinned by the differential
// fuzz target).
func rawStringTypeMatches(typ string, seg []byte, clean bool) bool {
	if typ == schema.TokString {
		// Any string is a string, whatever its bytes decode to.
		return true
	}
	if !clean {
		return false
	}
	switch typ {
	case schema.TokInt:
		return rawIntLiteral(seg)
	case schema.TokFloat:
		return rawFloatLiteral(seg)
	case schema.TokBool:
		return string(seg) == "true" || string(seg) == "false"
	case schema.TokIP:
		return rawIPLiteral(seg)
	}
	return false
}

// rawIntLiteral is ^-?\d+$ over bytes.
func rawIntLiteral(seg []byte) bool {
	if len(seg) > 0 && seg[0] == '-' {
		seg = seg[1:]
	}
	if len(seg) == 0 {
		return false
	}
	for _, c := range seg {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// rawFloatLiteral is ^-?\d+(\.\d+)?$ over bytes.
func rawFloatLiteral(seg []byte) bool {
	if len(seg) > 0 && seg[0] == '-' {
		seg = seg[1:]
	}
	i := 0
	for i < len(seg) && seg[i] >= '0' && seg[i] <= '9' {
		i++
	}
	if i == 0 {
		return false
	}
	if i == len(seg) {
		return true
	}
	if seg[i] != '.' {
		return false
	}
	i++
	start := i
	for i < len(seg) && seg[i] >= '0' && seg[i] <= '9' {
		i++
	}
	return i > start && i == len(seg)
}

// rawIPLiteral is ^(\d{1,3}\.){3}\d{1,3}$ over bytes.
func rawIPLiteral(seg []byte) bool {
	for octet := 0; octet < 4; octet++ {
		digits := 0
		for len(seg) > 0 && seg[0] >= '0' && seg[0] <= '9' && digits < 3 {
			seg = seg[1:]
			digits++
		}
		if digits == 0 {
			return false
		}
		if octet < 3 {
			if len(seg) == 0 || seg[0] != '.' {
				return false
			}
			seg = seg[1:]
		}
	}
	return len(seg) == 0
}

// rawBoolOK mirrors scalarOK for a bool value.
func rawBoolOK(sc *scalar, b bool) bool {
	switch sc.kind {
	case scalarExact, scalarSet:
		return false // string-only matchers never accept a bool
	case scalarType:
		return sc.typ == schema.TokBool
	}
	if sc.locked {
		return valuesContainBool(sc.values, b)
	}
	if sc.typ == schema.TokBool {
		return true
	}
	return valuesContainBool(sc.values, b)
}

// rawNullOK mirrors scalarOK for a null (decoded nil): only an
// enumerated nil value accepts it.
func rawNullOK(sc *scalar) bool {
	switch sc.kind {
	case scalarExact, scalarSet, scalarType:
		return false
	}
	for _, v := range sc.values {
		if v == nil {
			return true
		}
	}
	return false
}

// rawNumberOK mirrors scalarOK for a number literal. Integer literals
// carry their exact int64 value (the lexers bound the digits);
// fraction/exponent forms are only accepted through the content-free
// TokFloat type check — value comparisons on them fall back, since
// reproducing strconv's rounding bit-for-bit is not worth the risk.
func rawNumberOK(sc *scalar, seg []byte, isInt bool) bool {
	switch sc.kind {
	case scalarExact, scalarSet:
		return false
	case scalarType:
		switch sc.typ {
		case schema.TokFloat:
			return true // both int64 and float64 normalizations match
		case schema.TokInt:
			// A fraction/exponent literal may still decode to an
			// integral float64 ("1.0"); undecidable here, fall back.
			return isInt
		}
		return false
	}
	if sc.locked {
		return isInt && valuesContainInt(sc.values, parseRawInt(seg))
	}
	if sc.typ != "" {
		switch sc.typ {
		case schema.TokFloat:
			return true
		case schema.TokInt:
			if isInt {
				return true
			}
		}
	}
	return isInt && valuesContainInt(sc.values, parseRawInt(seg))
}

// parseRawInt parses an integer literal a lexer already validated
// (sign + up to 18 digits: always in int64 range).
func parseRawInt(seg []byte) int64 {
	neg := false
	if seg[0] == '-' {
		neg = true
		seg = seg[1:]
	}
	var v int64
	for _, c := range seg {
		v = v*10 + int64(c-'0')
	}
	if neg {
		return -v
	}
	return v
}

// valuesContainInt reports whether the enumeration admits the integer,
// with object.Equal's cross-type numeric semantics (int64/int exact,
// float64 only when exactly integral) — without boxing i into an any.
func valuesContainInt(values []any, i int64) bool {
	for _, v := range values {
		switch t := v.(type) {
		case int64:
			if t == i {
				return true
			}
		case int:
			if int64(t) == i {
				return true
			}
		case float64:
			if object.FloatEqualsInt(t, i) {
				return true
			}
		}
	}
	return false
}

func valuesContainBool(values []any, b bool) bool {
	for _, v := range values {
		if t, ok := v.(bool); ok && t == b {
			return true
		}
	}
	return false
}
