package compile

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/object"
	"repro/internal/schema"
	"repro/internal/validator"
)

// This file is the program side of the decode-free fast path: every
// policy decision a raw walk takes, written once for both wires. The
// wire files (stream.go for JSON, streamyaml.go for block YAML) hold the
// walkers only — they read tokens and lines with the decoders' own
// lexers, find where collections open and close, and ask this file what
// each construct means against the compiled node table.
//
// A walk judges the body (Program.JudgeRawScanned / JudgeRawYAMLScanned)
// with one of three outcomes:
//
//   - vouched: the walk reached the end of a body the decode path
//     accepts (no duplicate keys, no number it could reject, nothing the
//     lexer cannot spell byte-for-byte) and met no violation, so both
//     the compiled and the interpreted engine allow the decoded
//     document;
//   - diagnosed: the walk reached the end of such a body and recorded
//     violations on the way — exactly the list Program.Validate returns
//     on the decoded document, in its order (sorted keys, required-field
//     findings at each mapping's close), with every string copied out of
//     the body;
//   - undecided: the walk gave up (the zero val) on a malformed body or
//     on a construct it cannot judge byte-for-byte — an escaped or float
//     value a content check needs, a collection-valued Got, a policy node
//     with more than 64 required children, the duplicate-key window, the
//     depth limit — and the caller decodes and runs Validate.
//
// Allows stay one-sided: a wrong vouch is a security bug, a missed one a
// slower request. A violation is recorded only where the walk knows the
// decoded value, so a diagnosis is never a guess; what it cannot know
// stays undecided. Pinned by FuzzRawEquivalence / FuzzRawYAMLEquivalence
// (lists, not only verdicts) and the robustness matrix on both wires in
// sorted and reversed key order.

// RawMeta is the routing metadata extracted from raw JSON bytes: what
// the enforcement point needs to resolve a workload policy before — or
// instead of — decoding the body. Fields are sub-slices of the scanned
// body (zero-copy) and, for a body that decodes, mirror the decoded
// accessors exactly: a field whose value is not a plain string comes
// back nil, the same way object.Object's accessors return "".
type RawMeta struct {
	Kind       []byte
	APIVersion []byte
	Namespace  []byte
	Name       []byte
}

// val is what a walk consumed, as bit flags. Zero means "fall back to
// the decode path"; every walk that may go on sets valOK (whether or not
// it recorded violations), and a collection walked against a node adds
// the facts a parent's required-field check asks about it. Only opMap /
// opList children are ever measured (reqRef.kind), and mapNode /
// listItem walk a mapping under an opMap, a sequence under an opList,
// against it: a collection walked structurally is not of the shape the
// check measures, so it owes no facts.
type val uint8

const (
	valOK       val = 1 << iota
	valMap          // the value was a mapping
	valList         // the value was a sequence
	valMember       // ... with at least one member / item
	valEff          // ... with a member that survives the server-owned-key scrub
	valPrologue     // the walk stopped at the end of the prologue (mapWalk.done)
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

// token is one scalar as a wire walker hands it over. seg is the literal
// for numbers and the bytes between the quotes (or the plain scalar) for
// strings; clean means seg IS the decoded string.
type token struct {
	kind  tokKind
	clean bool
	seg   []byte
}

// typeName is validator.TypeName of the value the decoder makes of t.
func (t token) typeName() string {
	switch t.kind {
	case tokNull:
		return "null"
	case tokFalse, tokTrue:
		return "bool"
	case tokInt:
		return "int"
	case tokFloat:
		return "float"
	}
	return "string"
}

// render is validator.RenderValue of the value the decoder makes of t;
// ok is false where the bytes do not spell it exactly: an unclean
// string, and a float, whose value is strconv's rounding.
func (t token) render() (got string, ok bool) {
	switch t.kind {
	case tokString:
		if t.clean {
			return validator.Bounded(t.seg), true
		}
	case tokInt:
		return strconv.FormatInt(parseRawInt(t.seg), 10), true // "-0" is 0
	case tokTrue:
		return "true", true
	case tokFalse:
		return "false", true
	case tokNull:
		return "null", true
	}
	return "", false
}

// JudgeRawScanned judges a body straight off the wire it was scanned
// from — meta MUST be the successful ScanRawYAMLMeta of body when
// yamlWire, else its ScanRawMeta — in one walk, without decoding it.
// decided=false is undecided: decode the body and run Validate.
// decided=true with no violations is a vouch; with violations, the list
// is exactly Validate's on the decoded body, and none of its strings
// aliases body.
func (p *Program) JudgeRawScanned(meta RawMeta, body []byte, yamlWire bool) (vs []validator.Violation, decided bool) {
	if yamlWire {
		return p.judgeYAML(meta, body)
	}
	return p.judgeJSON(meta, body)
}

// rawMatch is the program side of one raw walk; each wire scanner
// embeds one.
type rawMatch struct {
	p    *Program
	meta RawMeta // filled by opCapture nodes (metaProgram walks only)
	keyWindow
	// out is the diagnosis: the violations met so far, in
	// Program.Validate's order for every mapping already closed. nil
	// until the first, so a vouch allocates nothing.
	out []validator.Violation
	// segs are the members of the mappings still open whose walks added
	// to out, in wire order: each mapping's close sorts its own by key.
	// Empty until the first violation.
	segs []memberSeg
}

// memberSeg is one mapping member's run of violations in out, and the
// key it is sorted on: the policy field's name, or the copy an unlisted
// key's violation path already made. Never a slice of the body: a
// pointer stored into the heap-grown segs from a walk frame would move
// the whole scanner to the heap (escape analysis does not tell struct
// fields apart).
type memberSeg struct {
	key string
	at  int // where the member's violations start in out
}

// deny records a violation at node idx's path.
func (m *rawMatch) deny(idx int32, reason, got string) {
	m.out = append(m.out, validator.Violation{Path: m.p.paths[m.p.nodes[idx].path], Reason: reason, Got: got})
}

// root is the prologue of a raw judgement: the kind root a scanned body
// is walked against. An absent or unknown kind and a disallowed
// apiVersion are the whole verdict, as in Program.Validate, and the body
// is walked structurally (-1) only to prove that it decodes.
func (m *rawMatch) root(meta RawMeta) int32 {
	p := m.p
	if len(meta.Kind) == 0 {
		m.out = p.kindViolation("")
		return -1
	}
	kp, ok := p.kinds[string(meta.Kind)]
	switch {
	case !ok:
		m.out = p.kindViolation(string(meta.Kind))
	case len(kp.apiVersions) > 0 && len(meta.APIVersion) > 0 && !kp.apiVersions[string(meta.APIVersion)]:
		m.out = apiVersionViolation(string(meta.Kind), string(meta.APIVersion))
	default:
		return kp.root
	}
	return -1
}

// mapNode pairs a mapping with the node it was found under and returns
// the node its members are walked against, -1 for structurally: only
// opMap walks matched; a wildcard, a capture or an unlocked type-dict
// scalar admits any well-formed mapping; every other pairing is a
// violation, recorded here from misfits, and the mapping is walked
// structurally. A locked type-dict scalar compares the mapping with its
// enumeration, and an opMap with more than 64 required children sweeps a
// materialized map: both are undecided.
func (m *rawMatch) mapNode(idx int32) (int32, bool) {
	if idx < 0 {
		return -1, true
	}
	n := &m.p.nodes[idx]
	switch {
	case n.op == opMap:
		return idx, n.flags&flagReqMany == 0
	case n.flags&flagDict != 0:
		return -1, n.flags&flagLocked == 0
	}
	if v := misfits[n.op][0]; v.Reason != "" {
		v.Path = m.p.paths[n.path]
		m.out = append(m.out, v)
	}
	return -1, true
}

// listItem is mapNode for a sequence: the node its items are walked
// against.
func (m *rawMatch) listItem(idx int32) (int32, bool) {
	if idx < 0 {
		return -1, true
	}
	n := &m.p.nodes[idx]
	switch {
	case n.op == opList:
		return n.item, true
	case n.flags&flagList != 0:
		return -1, n.flags&flagLocked == 0
	}
	if v := misfits[n.op][1]; v.Reason != "" {
		v.Path = m.p.paths[n.path]
		m.out = append(m.out, v)
	}
	return -1, true
}

// misfits is, by opcode, the violation of a mapping ([0]) and of a
// sequence ([1]) found under a node that does not walk it against its
// children — diagNode's and diagScalar's texts. An empty entry (the
// wildcards, the capture) walks it structurally and records nothing. A
// table, not a call: mapNode and listItem stay inlined on the walk's hot
// path.
var misfits = [opCapture + 1][2]validator.Violation{
	opDeny:   {{Reason: "field not allowed by policy"}, {Reason: "field not allowed by policy"}},
	opMap:    {1: {Reason: "expected object", Got: "list"}},
	opList:   {{Reason: "expected list", Got: "object"}},
	opScalar: {{Reason: "expected scalar, got object"}, {Reason: "expected scalar, got list"}},
}

// mapWalk is one mapping being walked: the wire calls member for every
// key, filled with what that member's value walk returned, and close
// when the mapping ends.
//
// It is 64 bytes: the wires hold one per open mapping, and a larger one is
// copied out of openMap by a loop, not by moves.
type mapWalk struct {
	m *rawMatch
	n *node // nil: structural walk
	// seen marks the required members met so far; want is n.reqBits (0
	// for a structural walk), so seen == want at close is a mapping that
	// met every requirement.
	seen, want uint64
	// empty marks the required members filled with an empty {} / [].
	empty uint64
	base  int32 // this scope's start in the duplicate-key window
	segs  int32 // this scope's start in m.segs
	// at is where the next member's violations start in m.out: nothing
	// is recorded between one member's value and the next key.
	at int32
	// field is the last member's policy field, an index into p.fields.
	field int32
	// req is the required check awaiting the last member's value: its
	// reqBit's index + 1, 0 for none.
	req uint8
	// sort is set once a member added violations: close sorts the
	// members' segments from segs on.
	sort bool
	got  val
	// walked marks the listed members of a flagPrologue node met so far,
	// by their offset in its field segment.
	walked uint8
}

// openMap starts the walk of a mapping against mapNode's answer.
func (m *rawMatch) openMap(idx int32) mapWalk {
	w := mapWalk{m: m, base: int32(m.nkeys), segs: int32(len(m.segs)), at: int32(len(m.out)), got: valOK | valMap}
	if idx >= 0 {
		w.n = &m.p.nodes[idx]
		w.want = w.n.reqBits
	}
	return w
}

// member admits one key and returns the node its value is walked
// against (-1: structurally — a server-owned key the validators never
// see, an unlisted key of an open node, or an unlisted key of a policy
// node, recorded as a violation).
func (w *mapWalk) member(key []byte) (int32, bool) {
	if !w.m.note(int(w.base), hashKey(key)) {
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
				w.req = uint8(bits.TrailingZeros64(f.reqBit)) + 1
			}
			if n.flags&flagPrologue != 0 {
				w.walked |= 1 << (mid - n.fieldsOff)
			}
			w.field = mid
			return f.node, true
		}
	}
	if n.flags&flagOpen == 0 {
		w.unlisted(key)
	}
	return -1, true
}

// unlisted records the violation of a key the policy node does not
// list, and the member's segment: its value is walked structurally and
// adds nothing to it. Kept out of line: inlined, its string building
// doubles member, which runs for every key of every body.
//
//go:noinline
func (w *mapWalk) unlisted(key []byte) {
	m := w.m
	path := string(key)
	if p := m.p.paths[w.n.path]; p != "" {
		path = p + "." + string(key)
	}
	m.out = append(m.out, validator.Violation{Path: path, Reason: "field not allowed by policy"})
	w.segment(path[len(path)-len(key):])
}

// filled takes the walk of the last member's value and reports whether
// the mapping may go on: the value was walked.
func (w *mapWalk) filled(v val) bool {
	if w.req != 0 || len(w.m.out) != int(w.at) {
		w.settle(v)
	}
	return v != 0
}

// settle is filled for a required member or one that added violations.
// A required member's empty {} / [] stand-in (requiredEmpty in the
// decoded engines; the metadata child is measured after the scrub)
// defeats the requirement the way absence does: its bit leaves seen for
// empty, and close reports it. A member that added violations is a
// segment for close to sort.
func (w *mapWalk) settle(v val) {
	if w.req != 0 {
		i := w.req - 1
		w.req = 0
		bit := uint64(1) << i
		r := &w.m.p.reqs[w.n.reqOff+int32(i)]
		var empty bool
		switch r.kind {
		case validator.KindMap:
			if r.flags&flagMeta != 0 {
				empty = v&valMap != 0 && v&valEff == 0
			} else {
				empty = v&valMap != 0 && v&valMember == 0
			}
		case validator.KindList:
			empty = v&valList != 0 && v&valMember == 0
		}
		if empty {
			w.seen &^= bit
			w.empty |= bit
		}
	}
	if len(w.m.out) != int(w.at) {
		w.segment(w.m.p.fields[w.field].name)
	}
}

// segment closes the last member's run of violations in m.out: close
// sorts it into place under key.
func (w *mapWalk) segment(key string) {
	w.m.segs = append(w.m.segs, memberSeg{key: key, at: int(w.at)})
	w.at = int32(len(w.m.out))
	w.sort = true
}

// done reports whether the walk may stop after the member just filled:
// the mapping is metaProgram's root and apiVersion, kind and metadata
// have each been walked. Routing needs nothing past them, and whether the
// rest of the body decodes is the match's to vouch for. The wires ask
// after every member and, on yes, return close() | valPrologue; every
// other walk, and a prologue missing any of the three, goes to the end.
// Only a flagPrologue node ever sets walked, so one compare decides.
func (w *mapWalk) done() bool { return w.walked == prologueWalked }

// close ends the mapping. One that met violations puts its members'
// violations in sorted key order, then reports every required field not
// seen, or filled empty, in the node's required order — diagNode's
// order.
func (w *mapWalk) close() val {
	w.m.nkeys = int(w.base)
	if w.seen != w.want || w.sort {
		w.findings()
	}
	return w.got
}

// findings is close for a mapping that met violations or missed a
// requirement; never a structural walk's, which records neither.
func (w *mapWalk) findings() {
	m, n := w.m, w.n
	if w.sort {
		m.sortMembers(int(w.segs))
		m.segs = m.segs[:w.segs]
	}
	for i := n.reqOff; i < n.reqEnd; i++ {
		bit := uint64(1) << uint(i-n.reqOff)
		if w.seen&bit != 0 {
			continue
		}
		reason := "security-critical field must be present"
		if w.empty&bit != 0 {
			reason = "security-critical field must not be empty"
		}
		m.out = append(m.out, validator.Violation{Path: m.p.paths[m.p.reqs[i].path], Reason: reason})
	}
}

// sortMembers reorders the violations of the members segs[base:] names
// — back to back at the end of out, in wire order — into sorted key
// order, the order diagNode visits a mapping's keys in. Keys are unique
// (the window refuses duplicates), so any sort is stable.
func (m *rawMatch) sortMembers(base int) {
	segs := m.segs[base:]
	if slices.IsSortedFunc(segs, func(a, b memberSeg) int { return strings.Compare(a.key, b.key) }) {
		return
	}
	type span struct {
		key    string
		lo, hi int
	}
	spans := make([]span, len(segs))
	for i, s := range segs {
		hi := len(m.out)
		if i+1 < len(segs) {
			hi = segs[i+1].at
		}
		spans[i] = span{s.key, s.at, hi}
	}
	slices.SortFunc(spans, func(a, b span) int { return strings.Compare(a.key, b.key) })
	from := segs[0].at
	tail := append([]validator.Violation(nil), m.out[from:]...)
	at := from
	for _, s := range spans {
		at += copy(m.out[at:], tail[s.lo-from:s.hi-from])
	}
}

// judge is admits, then refuse for a scalar admits refuses: the whole
// judgement of one scalar.
func (m *rawMatch) judge(idx int32, t token) val {
	if v := m.admits(idx, t); v != 0 {
		return v
	}
	return m.refuse(idx, t)
}

// admits reports whether a node admits one scalar, mirroring scalarOK on
// the value the decode path would produce: valOK, or 0 for refuse to
// rule on. It keeps nothing of t past the matchers, so a caller on the
// hot path may hand refuse the token again (the JSON wire re-lexes it)
// instead of holding it across them.
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

// refuse rules on a scalar node idx does not admit: a violation when the
// walk knows the decoded value (token.render), else undecided — as is a
// capture the walk cannot spell.
func (m *rawMatch) refuse(idx int32, t token) val {
	switch n := &m.p.nodes[idx]; n.op {
	case opScalar:
		got, known := t.render()
		if !known {
			return 0
		}
		reason := "value outside the domain allowed by policy"
		if m.p.scalars[n.scalar].locked {
			reason = "security-locked field set to unsafe value"
		}
		m.deny(idx, reason, got)
	case opMap:
		m.deny(idx, "expected object", t.typeName())
	case opList:
		m.deny(idx, "expected list", t.typeName())
	case opCapture:
		return 0
	default: // opDeny
		m.deny(idx, "field not allowed by policy", "")
	}
	return valOK
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
// The routing-metadata scan is a walk against this built-in program over
// the body's prologue: the root's members up to the one that completes
// apiVersion, kind and metadata (flagPrologue, mapWalk.done), or the
// whole body when one of them is absent. A successful scan promises that
// the prologue is well formed and that, IF the body decodes, the captures
// equal the decoded accessors — both decoders reject duplicate keys and
// a second YAML document, so a decodable body cannot contradict its own
// prologue. That the body decodes is promised by the match alone, which
// walks every byte. Compile never emits opCapture, flagOpen or
// flagPrologue.
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

// prologueWalked is mapWalk.walked once each of the three members
// metaRoot lists has been walked.
const prologueWalked = 1<<3 - 1

var metaProgram = &Program{
	nodes: []node{
		metaAPIVersion: {op: opCapture, item: metaAPIVersion},
		metaKind:       {op: opCapture, item: metaKind},
		metaName:       {op: opCapture, item: metaName},
		metaNamespace:  {op: opCapture, item: metaNamespace},
		metaMetadata:   {op: opMap, flags: flagOpen | flagList, fieldsOff: 0, fieldsEnd: 2},
		metaRoot:       {op: opMap, flags: flagOpen | flagList | flagPrologue, fieldsOff: 2, fieldsEnd: 5},
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

// hashKey hashes a key in a few word loads, whatever its length: eight
// bytes at a time and then its last eight, or its first and last four,
// or three of its bytes — every byte is read, none one at a time, so a
// key costs one dependent multiply per word, not per byte: every key of
// every body is hashed. Equal keys hash equal, which is all the window
// needs.
func hashKey(key []byte) uint32 {
	n := len(key)
	h := uint64(n) * 0x9e3779b97f4a7c15
	switch {
	case n > 8:
		for k := key; len(k) > 8; k = k[8:] {
			h = (h ^ binary.LittleEndian.Uint64(k)) * 0xbf58476d1ce4e5b9
		}
		h ^= binary.LittleEndian.Uint64(key[n-8:])
	case n >= 4:
		h ^= uint64(binary.LittleEndian.Uint32(key))<<32 | uint64(binary.LittleEndian.Uint32(key[n-4:]))
	case n > 0:
		h ^= uint64(key[0])<<16 | uint64(key[n>>1])<<8 | uint64(key[n-1])
	}
	h *= 0x94d049bb133111eb
	return uint32(h ^ h>>32)
}

// note records one member key of the scope opened at base, by its
// hashKey h, and reports whether the walk may proceed: false on a
// (possible) duplicate and on a full window.
func (k *keyWindow) note(base int, h uint32) bool {
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
// carry their exact int64 value (the walkers bound the digits);
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

// parseRawInt parses an integer literal a walker already bounded
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
