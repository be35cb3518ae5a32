package compile

import (
	"fmt"
	"math/bits"
	"sort"

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
// result means the request is allowed. Verdicts and violations are
// identical to validator.Validator.Validate on the source policy.
//
// Allowed requests complete in a single pass over the decoded document
// with no allocations beyond what regexp matching may need; only
// denied requests take the diagnostic pass that materializes the
// violation list.
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
	if p.fastOK(kp.root, map[string]any(o)) {
		return nil
	}
	var out []validator.Violation
	p.diagNode(kp.root, map[string]any(o), &out)
	return out
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

// ---------------------------------------------------------------------
// Fast pass: allocation-free, stops at the first problem.
// ---------------------------------------------------------------------

func (p *Program) fastOK(idx int32, val any) bool {
	n := &p.nodes[idx]
	switch n.op {
	case opDeny:
		return false
	case opAny, opAllow:
		return true
	case opScalar:
		return p.scalarOK(&p.scalars[n.scalar], val)
	case opList:
		items, ok := val.([]any)
		if !ok {
			return false
		}
		for _, item := range items {
			if !p.fastOK(n.item, item) {
				return false
			}
		}
		return true
	default: // opMap
		m, ok := val.(map[string]any)
		if !ok {
			return false
		}
		var seen uint64
		for k, v := range m {
			if n.flags&(flagRoot|flagMeta) != 0 && skip(n.flags, k) {
				continue
			}
			f := p.findField(n, k)
			if f == nil {
				return false
			}
			if f.reqBit != 0 {
				seen |= f.reqBit
				if p.requiredEmpty(&p.reqs[n.reqOff+int32(bits.TrailingZeros64(f.reqBit))], v) {
					return false
				}
			}
			if !p.fastOK(f.node, v) {
				return false
			}
		}
		if n.flags&flagReqMany != 0 {
			for i := n.reqOff; i < n.reqEnd; i++ {
				r := &p.reqs[i]
				v, present := m[r.name]
				if present && n.flags&(flagRoot|flagMeta) != 0 && skip(n.flags, r.name) {
					present = false
				}
				if !present || p.requiredEmpty(r, v) {
					return false
				}
			}
			return true
		}
		return seen == n.reqBits
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

// scalarOK runs the precompiled matcher group. The checks mirror the
// interpreted validateScalar exactly; matcher specializations only
// shortcut shapes whose outcome is decided by one comparison.
func (p *Program) scalarOK(sc *scalar, val any) bool {
	if _, isMap := val.(map[string]any); isMap && sc.typ != schema.TokDict {
		return false
	}
	if _, isList := val.([]any); isList && sc.typ != schema.TokList {
		return false
	}
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

// ---------------------------------------------------------------------
// Diagnostic pass: reproduces the interpreted violation list exactly
// (same traversal order, same interned paths, same reasons).
// ---------------------------------------------------------------------

func (p *Program) diagNode(idx int32, val any, out *[]validator.Violation) {
	n := &p.nodes[idx]
	path := p.paths[n.path]
	switch n.op {
	case opDeny:
		*out = append(*out, validator.Violation{Path: path,
			Reason: "field not allowed by policy"})
	case opAny, opAllow:
		return
	case opScalar:
		p.diagScalar(&p.scalars[n.scalar], val, path, out)
	case opList:
		items, ok := val.([]any)
		if !ok {
			*out = append(*out, validator.Violation{Path: path,
				Reason: "expected list", Got: validator.TypeName(val)})
			return
		}
		for _, item := range items {
			p.diagNode(n.item, item, out)
		}
	default: // opMap
		m, ok := val.(map[string]any)
		if !ok {
			*out = append(*out, validator.Violation{Path: path,
				Reason: "expected object", Got: validator.TypeName(val)})
			return
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			if n.flags&(flagRoot|flagMeta) != 0 && skip(n.flags, k) {
				continue
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f := p.findField(n, k)
			if f == nil {
				*out = append(*out, validator.Violation{Path: joinPath(path, k),
					Reason: "field not allowed by policy"})
				continue
			}
			p.diagNode(f.node, m[k], out)
		}
		for i := n.reqOff; i < n.reqEnd; i++ {
			r := &p.reqs[i]
			v, present := m[r.name]
			if present && n.flags&(flagRoot|flagMeta) != 0 && skip(n.flags, r.name) {
				present = false
			}
			if !present {
				*out = append(*out, validator.Violation{Path: p.paths[r.path],
					Reason: "security-critical field must be present"})
				continue
			}
			if p.requiredEmpty(r, v) {
				*out = append(*out, validator.Violation{Path: p.paths[r.path],
					Reason: "security-critical field must not be empty"})
			}
		}
	}
}

func (p *Program) diagScalar(sc *scalar, val any, path string, out *[]validator.Violation) {
	if _, isMap := val.(map[string]any); isMap && sc.typ != schema.TokDict {
		*out = append(*out, validator.Violation{Path: path,
			Reason: "expected scalar, got object"})
		return
	}
	if _, isList := val.([]any); isList && sc.typ != schema.TokList {
		*out = append(*out, validator.Violation{Path: path,
			Reason: "expected scalar, got list"})
		return
	}
	if sc.locked {
		if !p.scalarOK(sc, val) {
			*out = append(*out, validator.Violation{Path: path,
				Reason: "security-locked field set to unsafe value",
				Got:    validator.RenderValue(val)})
		}
		return
	}
	if !p.scalarOK(sc, val) {
		*out = append(*out, validator.Violation{Path: path,
			Reason: "value outside the domain allowed by policy",
			Got:    validator.RenderValue(val)})
	}
}
