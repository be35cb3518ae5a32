package compile

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/object"
	"repro/internal/schema"
	"repro/internal/validator"
)

// skip reports whether key k is invisible at a node with the given
// scrub flags. The interpreted engine deletes these keys from a copy
// of the request before walking the tree; the compiled engine treats
// them as invisible in place. Both consult the same predicates
// (validator.ScrubRootKey / ScrubMetaKey) so the scrub can never
// drift between the engines.
func skip(flags uint8, k string) bool {
	if flags&flagRoot != 0 && validator.ScrubRootKey(k) {
		return true
	}
	if flags&flagMeta != 0 && validator.ScrubMetaKey(k) {
		return true
	}
	return false
}

// Validate checks a request object against the compiled program. A nil
// result means the request is allowed; otherwise the result is exactly
// validator.Validator.Validate's list on the source policy: same order,
// same paths, same reasons.
//
// One walk decides and diagnoses. It visits each mapping's members in
// the map's own order, records a violation where it meets one and walks
// on; the mapping's close (diagnosis.closeMapping, the raw walk's close
// too) puts its members' violations in sorted key order and adds its
// required-field findings. An allowed request allocates nothing beyond
// what regexp matching may need.
func (p *Program) Validate(o object.Object) []validator.Violation {
	kind := o.Kind()
	if kind == "" {
		return p.kindViolation("")
	}
	kp, ok := p.kinds[kind]
	if !ok {
		return p.kindViolation(kind)
	}
	if len(kp.apiVersions) > 0 {
		if av := o.APIVersion(); av != "" && !kp.apiVersions[av] {
			return apiVersionViolation(kind, av)
		}
	}
	var d diagnosis
	p.walk(kp.root, map[string]any(o), &d)
	return d.out
}

// kindViolation is the whole verdict on a request whose kind is absent
// ("") or one the program does not know; no field is walked.
func (p *Program) kindViolation(kind string) []validator.Violation {
	if kind == "" {
		return []validator.Violation{{Reason: "request object has no kind"}}
	}
	return []validator.Violation{{Reason: fmt.Sprintf(
		"kind %s is not used by workload %s", validator.Bounded(kind), p.workload)}}
}

// apiVersionViolation is the whole verdict on a known kind sent under an
// apiVersion its policy does not allow.
func apiVersionViolation(kind, av string) []validator.Violation {
	return []validator.Violation{{Path: "apiVersion",
		Reason: "apiVersion not allowed for kind " + kind, Got: validator.Bounded(av)}}
}

// walk judges one decoded value against node idx, appending its
// violations to d.
func (p *Program) walk(idx int32, val any, d *diagnosis) {
	n := &p.nodes[idx]
	switch n.op {
	case opDeny:
		d.deny(p, n, "field not allowed by policy", "")
	case opAny, opAllow:
	case opScalar:
		sc := &p.scalars[n.scalar]
		switch val.(type) {
		case map[string]any:
			if sc.typ != schema.TokDict {
				d.deny(p, n, "expected scalar, got object", "")
				return
			}
		case []any:
			if sc.typ != schema.TokList {
				d.deny(p, n, "expected scalar, got list", "")
				return
			}
		}
		if !p.scalarOK(sc, val) {
			d.deny(p, n, sc.refusal(), validator.RenderValue(val))
		}
	case opList:
		items, ok := val.([]any)
		if !ok {
			d.deny(p, n, "expected list", validator.TypeName(val))
			return
		}
		for _, item := range items {
			p.walk(n.item, item, d)
		}
	default: // opMap
		m, ok := val.(map[string]any)
		if !ok {
			d.deny(p, n, "expected object", validator.TypeName(val))
			return
		}
		segs := len(d.segs)
		var seen, empty uint64
		for k, v := range m {
			if n.flags&(flagRoot|flagMeta) != 0 && skip(n.flags, k) {
				continue
			}
			at := len(d.out)
			if f := p.findField(n, k); f == nil {
				d.out = append(d.out, validator.Violation{Path: validator.UnlistedPath(p.paths[n.path], k),
					Reason: "field not allowed by policy"})
			} else {
				if f.reqBit != 0 {
					if p.requiredEmpty(&p.reqs[n.reqOff+int32(bits.TrailingZeros64(f.reqBit))], v) {
						empty |= f.reqBit
					} else {
						seen |= f.reqBit
					}
				}
				p.walk(f.node, v, d)
			}
			if len(d.out) != at {
				d.segs = append(d.segs, memberSeg{key: k, lo: int32(at), hi: int32(len(d.out))})
			}
		}
		if n.flags&flagReqMany == 0 {
			if seen != n.reqBits || len(d.segs) != segs {
				d.closeMapping(p, n, segs, seen, empty)
			}
			return
		}
		// More than 64 required children: no bitset, so the required
		// findings come from direct lookups.
		d.sortMembers(segs)
		for i := n.reqOff; i < n.reqEnd; i++ {
			r := &p.reqs[i]
			v, present := m[r.name]
			if present && n.flags&(flagRoot|flagMeta) != 0 && skip(n.flags, r.name) {
				present = false
			}
			if !present || p.requiredEmpty(r, v) {
				d.require(p, r, present)
			}
		}
	}
}

// findField resolves a request key against the node's sorted field
// segment by binary search.
func (p *Program) findField(n *node, name string) *fieldRef {
	lo, hi := n.fieldsOff, n.fieldsEnd
	for lo < hi {
		mid := (lo + hi) / 2
		f := &p.fields[mid]
		switch {
		case f.name == name:
			return f
		case f.name < name:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return nil
}

// requiredEmpty reports whether a present required field is an empty
// {} / [] stand-in, which defeats the requirement the same way absence
// would.
func (p *Program) requiredEmpty(r *reqRef, val any) bool {
	switch r.kind {
	case validator.KindMap:
		m, ok := val.(map[string]any)
		if !ok {
			return false
		}
		if r.flags&flagMeta != 0 {
			// The interpreted engine measures the scrubbed metadata map;
			// measure the effective length instead of copying.
			n := 0
			for k := range m {
				if !validator.ScrubMetaKey(k) {
					n++
				}
			}
			return n == 0
		}
		return len(m) == 0
	case validator.KindList:
		l, ok := val.([]any)
		return ok && len(l) == 0
	}
	return false
}

// scalarOK runs the precompiled matcher group on a value walk has
// already found to be of a shape the scalar admits. The checks mirror
// the interpreted validateScalar exactly; matcher specializations only
// shortcut shapes whose outcome is decided by one comparison.
func (p *Program) scalarOK(sc *scalar, val any) bool {
	switch sc.kind {
	case scalarExact:
		s, ok := val.(string)
		return ok && s == sc.exact
	case scalarSet:
		s, ok := val.(string)
		return ok && sc.strings[s]
	case scalarType:
		return validator.TypeMatches(sc.typ, val)
	}
	if sc.locked {
		// Only the enumerated safe constants are allowed, regardless of
		// type or patterns.
		if s, ok := val.(string); ok {
			return sc.strings[s]
		}
		for _, allowed := range sc.values {
			if object.Equal(allowed, val) {
				return true
			}
		}
		return false
	}
	if sc.typ != "" && validator.TypeMatches(sc.typ, val) {
		return true
	}
	if s, ok := val.(string); ok {
		if sc.strings[s] {
			return true
		}
		for _, re := range sc.regexps {
			if re.MatchString(s) {
				return true
			}
		}
		return false
	}
	for _, allowed := range sc.values {
		if object.Equal(allowed, val) {
			return true
		}
	}
	return false
}

// refusal is the reason a scalar gives a value it does not admit.
func (sc *scalar) refusal() string {
	if sc.locked {
		return "security-locked field set to unsafe value"
	}
	return "value outside the domain allowed by policy"
}

// ---------------------------------------------------------------------
// Diagnosis: the violation order, decided once for both program walks.
// ---------------------------------------------------------------------

// diagnosis is a violation list being built by a program walk — the
// decoded one above or a raw one (rawMatch embeds it) — with what it
// takes to put the list in the interpreted engine's order: per mapping,
// its members' violations in sorted key order, then its required-field
// findings in policy order. A walk visits members in whatever order it
// meets them and leaves the ordering to closeMapping.
type diagnosis struct {
	// out is the violations met so far, in order for every mapping
	// already closed. nil until the first, so an allowed walk allocates
	// nothing.
	out []validator.Violation
	// segs are the members of the mappings still open whose walks added
	// to out, in visiting order: each mapping's close sorts its own by
	// key. Empty until the first violation.
	segs []memberSeg
}

// memberSeg is one mapping member's run of violations in out, and the
// key it is sorted on: the member's key as a string — for the raw walk,
// the policy field's name, or the copy an unlisted key's violation path
// already made (a copy of its own when that path cuts the key). Never a
// slice of a raw body: a pointer stored into the heap-grown segs from a
// walk frame would move the whole scanner to the heap (escape analysis
// does not tell struct fields apart).
type memberSeg struct {
	key    string
	lo, hi int32 // the member's violations are out[lo:hi]
}

// deny records a violation at node n's path.
func (d *diagnosis) deny(p *Program, n *node, reason, got string) {
	d.out = append(d.out, validator.Violation{Path: p.paths[n.path], Reason: reason, Got: got})
}

// require records the finding of required child r: absent, or present
// but filled with an empty {} / [] (empty).
func (d *diagnosis) require(p *Program, r *reqRef, empty bool) {
	reason := "security-critical field must be present"
	if empty {
		reason = "security-critical field must not be empty"
	}
	d.out = append(d.out, validator.Violation{Path: p.paths[r.path], Reason: reason})
}

// closeMapping ends the diagnosis of a mapping walked against policy
// node n (fewer than 65 required children): its members' violations, the
// runs segs[base:] names, go into sorted key order, then every required
// child whose bit is not in seen is reported in the node's required
// order — as empty when its bit is in empty, as missing otherwise.
func (d *diagnosis) closeMapping(p *Program, n *node, base int, seen, empty uint64) {
	d.sortMembers(base)
	for i := n.reqOff; i < n.reqEnd; i++ {
		bit := uint64(1) << uint(i-n.reqOff)
		if seen&bit == 0 {
			d.require(p, &p.reqs[i], empty&bit != 0)
		}
	}
}

// sortMembers reorders the violations of the members segs[base:] names
// — back to back at the end of out, in visiting order — into sorted key
// order, and drops those segments. Keys are unique within a mapping, so
// any sort is stable. The sorted runs are appended past the end of out
// and moved down over the unsorted ones: no scratch of its own.
func (d *diagnosis) sortMembers(base int) {
	segs := d.segs[base:]
	d.segs = d.segs[:base]
	byKey := func(a, b memberSeg) int { return strings.Compare(a.key, b.key) }
	if slices.IsSortedFunc(segs, byKey) {
		return
	}
	from, end := segs[0].lo, len(d.out)
	slices.SortFunc(segs, byKey)
	for _, s := range segs {
		d.out = append(d.out, d.out[s.lo:s.hi]...)
	}
	d.out = append(d.out[:from], d.out[end:]...)
}
