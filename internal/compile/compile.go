// Package compile lowers a consolidated KubeFence policy
// (validator.Validator, a per-kind schema tree of Go maps, slices and
// lazily-compiled regexps) into a flat, immutable rule program that the
// enforcement hot path executes with near-zero allocations.
//
// The interpreted tree walk costs map lookups, per-map key sorting, a
// DeepCopy of every request body (to scrub server-owned fields), and
// first-hit regexp compilation. The compiled program removes all of
// that:
//
//   - Field paths are interned once at compile time; the hot path never
//     concatenates path strings. Violations reference interned IDs.
//   - Nodes live in one contiguous table; a map node's children are a
//     sorted slice segment resolved by binary search, not a map walk.
//   - Scalar domains become precompiled matchers: exact string, string
//     set, regexp list (compiled eagerly, once), and type checks that
//     share validator.TypeMatches so both engines agree bit for bit.
//   - Required-field checks are resolved against the lock mode at
//     compile time and tracked with a per-node bitset during the single
//     pass over the request document, instead of a second sorted sweep.
//   - The server-owned-field scrub (apiVersion/kind/status at the root,
//     resourceVersion/uid/… under metadata) becomes skip flags on the
//     two affected nodes, eliminating the per-request DeepCopy.
//
// Execution is two-phase: a fast pass returns on the first problem
// without allocating; only denied requests take the diagnostic pass,
// which reproduces the interpreted engine's violation list — same
// order, same paths, same reasons — so audit output is identical
// whichever engine ran. Semantic equivalence is enforced by a
// differential fuzz target and a table test replaying the full
// robustness matrix through both engines.
package compile

import (
	"fmt"
	"regexp"
	"sort"

	"repro/internal/validator"
)

// nodeOp is the execution opcode of a compiled node.
type nodeOp uint8

const (
	opDeny   nodeOp = iota // nil policy subtree: always a violation
	opAny                  // free-form subtree: always allowed
	opMap                  // fixed field set
	opList                 // homogeneous item schema
	opScalar               // precompiled domain matchers
	opAllow                // unknown interpreted node kind: allowed (parity)
	// opCapture is used by the built-in routing-metadata program of the
	// raw path only (match.go); Compile never emits it. A clean string is
	// stored into the RawMeta field item names, an unclean one fails the
	// walk, and every non-string is admitted as the accessor's "".
	opCapture
)

// Node flags.
const (
	// flagRoot marks a kind root: top-level apiVersion/kind/status keys
	// are invisible (the interpreted engine deletes them from a copy).
	flagRoot uint8 = 1 << iota
	// flagMeta marks the root's metadata child: server-owned metadata
	// keys are invisible.
	flagMeta
	// flagReqMany marks a map node with more than 64 required children;
	// presence is then checked by direct lookups instead of the bitset.
	flagReqMany
	// flagOpen marks a map node of the built-in routing-metadata program
	// (Compile never sets it): unlisted keys are walked structurally and
	// a non-mapping value is admitted.
	flagOpen
)

// node is one compiled policy node. Children are index ranges into the
// program's contiguous side tables.
type node struct {
	op    nodeOp
	flags uint8
	path  int32 // interned path ID

	fieldsOff, fieldsEnd int32 // opMap: [off,end) into Program.fields
	reqOff, reqEnd       int32 // opMap: [off,end) into Program.reqs
	reqBits              uint64
	item                 int32 // opList: item node index; opCapture: RawMeta field
	scalar               int32 // opScalar: index into Program.scalars
}

// fieldRef is one allowed field of a map node. Segments are sorted by
// name so the hot path resolves fields by binary search.
type fieldRef struct {
	name   string
	node   int32
	reqBit uint64 // non-zero iff the child is a required check
}

// reqRef is one mode-resolved required-field check, in sorted field
// order (the order the interpreted engine emits missing-field
// violations in).
type reqRef struct {
	name  string
	path  int32              // interned path of the child
	kind  validator.NodeKind // child kind, for the must-not-be-empty check
	flags uint8              // child flags (flagMeta affects emptiness)
}

// scalarKind classifies a scalar's precompiled matcher specialization.
type scalarKind uint8

const (
	scalarGeneric scalarKind = iota
	scalarExact              // single allowed string constant
	scalarSet                // string enumeration only
	scalarType               // type token only
)

// scalar is a leaf's precompiled value-domain matcher group. The scalar
// alternatives of the tree (type token OR patterns OR enumerated
// values) are flattened into one rule group checked in sequence.
type scalar struct {
	kind    scalarKind
	typ     string // placeholder token, "" if unset
	locked  bool
	exact   string          // scalarExact
	strings map[string]bool // allowed string constants (subset of values)
	regexps []*regexp.Regexp
	values  []any // full enumeration, original order (generic fallback)
}

// kindProgram is the compiled entry point for one resource kind.
type kindProgram struct {
	root        int32
	apiVersions map[string]bool
}

// Program is a compiled, immutable policy. It is safe for concurrent
// use by any number of request goroutines; the registry swaps whole
// programs atomically on policy updates.
type Program struct {
	workload string
	mode     validator.LockMode
	kinds    map[string]kindProgram

	nodes   []node
	fields  []fieldRef
	reqs    []reqRef
	scalars []scalar
	paths   []string // interned path table
}

// Workload names the policy the program was compiled from.
func (p *Program) Workload() string { return p.workload }

// Stats describes a compiled program, for introspection and tests.
type Stats struct {
	Kinds         int
	Nodes         int
	Fields        int
	RequiredRefs  int
	Scalars       int
	InternedPaths int
}

// Stats reports the program's table sizes.
func (p *Program) Stats() Stats {
	return Stats{
		Kinds:         len(p.kinds),
		Nodes:         len(p.nodes),
		Fields:        len(p.fields),
		RequiredRefs:  len(p.reqs),
		Scalars:       len(p.scalars),
		InternedPaths: len(p.paths),
	}
}

// maxDepth bounds compilation recursion so a (hand-constructed) cyclic
// policy graph fails compilation instead of hanging it.
const maxDepth = 10000

type compiler struct {
	p      *Program
	intern map[string]int32
	mode   validator.LockMode
}

// Compile lowers a validator into a flat rule program. It fails on
// policy shapes the interpreted engine cannot validate either (nil map
// children, which panic the tree walk) or whose scrub semantics cannot
// be reproduced without the per-request copy (locked or map-valued
// scalars sitting exactly at a kind root or its metadata child —
// shapes Build and Union never produce).
func Compile(v *validator.Validator) (*Program, error) {
	if v == nil {
		return nil, fmt.Errorf("compile: nil validator")
	}
	c := &compiler{
		p: &Program{
			workload: v.Workload,
			mode:     v.Mode,
			kinds:    make(map[string]kindProgram, len(v.Kinds)),
		},
		intern: map[string]int32{},
		mode:   v.Mode,
	}
	kinds := make([]string, 0, len(v.Kinds))
	for k := range v.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		root, err := c.lower(v.Kinds[kind], "", 0, flagRoot)
		if err != nil {
			return nil, fmt.Errorf("compile: kind %s: %w", kind, err)
		}
		kp := kindProgram{root: root}
		if avs := v.APIVersions[kind]; len(avs) > 0 {
			kp.apiVersions = make(map[string]bool, len(avs))
			// Preserve each entry's value: an explicit-false entry
			// both counts toward the gate being active (len > 0) and
			// denies, exactly as the interpreted lookup treats it.
			for av, allowed := range avs {
				kp.apiVersions[av] = allowed
			}
		}
		c.p.kinds[kind] = kp
	}
	return c.p, nil
}

// MustCompile is Compile for policies known to be well-formed (e.g.
// produced by validator.Build); it panics on compilation failure.
func MustCompile(v *validator.Validator) *Program {
	p, err := Compile(v)
	if err != nil {
		panic(err)
	}
	return p
}

// pathID interns a dotted field path.
func (c *compiler) pathID(path string) int32 {
	if id, ok := c.intern[path]; ok {
		return id
	}
	id := int32(len(c.p.paths))
	c.p.paths = append(c.p.paths, path)
	c.intern[path] = id
	return id
}

// alloc appends a node and returns its index.
func (c *compiler) alloc(n node) int32 {
	c.p.nodes = append(c.p.nodes, n)
	return int32(len(c.p.nodes) - 1)
}

// lower compiles one validator subtree. flags carries the scrub
// context (kind root, root metadata child) down to the emitted node.
func (c *compiler) lower(n *validator.Node, path string, depth int, flags uint8) (int32, error) {
	if depth > maxDepth {
		return 0, fmt.Errorf("policy tree deeper than %d (cyclic node graph?)", maxDepth)
	}
	pid := c.pathID(path)
	if n == nil {
		// The interpreted walk denies nil subtrees with "field not
		// allowed by policy" (nil kind roots, nil list items).
		return c.alloc(node{op: opDeny, path: pid, flags: flags}), nil
	}
	switch n.Kind {
	case validator.KindAny:
		return c.alloc(node{op: opAny, path: pid, flags: flags}), nil
	case validator.KindScalar:
		return c.lowerScalar(n, path, pid, flags)
	case validator.KindList:
		item, err := c.lower(n.Item, path, depth+1, 0)
		if err != nil {
			return 0, err
		}
		return c.alloc(node{op: opList, path: pid, flags: flags, item: item}), nil
	case validator.KindMap:
		return c.lowerMap(n, path, depth, pid, flags)
	default:
		// The interpreted switch has no case for unknown kinds and
		// silently allows; reproduce that verdict.
		return c.alloc(node{op: opAllow, path: pid, flags: flags}), nil
	}
}

func (c *compiler) lowerMap(n *validator.Node, path string, depth int, pid int32, flags uint8) (int32, error) {
	names := make([]string, 0, len(n.Fields))
	for name, child := range n.Fields {
		if child == nil {
			// The interpreted required-field sweep dereferences every
			// child, so a nil map child panics the tree walk at request
			// time; fail at compile time instead.
			return 0, fmt.Errorf("%s: nil field node %q", pathOrRoot(path), name)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	// Required checks, resolved against the lock mode now: locked
	// fields are only demanded under LockRequired, plain required
	// fields (RequiredPaths ancestors) always.
	var reqNames []string
	for _, name := range names {
		child := n.Fields[name]
		if !child.Required {
			continue
		}
		if child.Locked && c.mode != validator.LockRequired {
			continue
		}
		reqNames = append(reqNames, name)
	}
	reqBit := map[string]uint64{}
	many := len(reqNames) > 64
	if !many {
		for i, name := range reqNames {
			reqBit[name] = 1 << uint(i)
		}
	}

	// Children first: their indices feed the fieldRef segment. Segments
	// must be contiguous, so child subtrees are lowered before this
	// node's segment is claimed.
	childIdx := make([]int32, len(names))
	childFlags := make([]uint8, len(names))
	for i, name := range names {
		var cf uint8
		if flags&flagRoot != 0 && name == "metadata" {
			cf = flagMeta
		}
		childFlags[i] = cf
		idx, err := c.lower(n.Fields[name], joinPath(path, name), depth+1, cf)
		if err != nil {
			return 0, err
		}
		childIdx[i] = idx
	}

	fieldsOff := int32(len(c.p.fields))
	for i, name := range names {
		c.p.fields = append(c.p.fields, fieldRef{
			name:   name,
			node:   childIdx[i],
			reqBit: reqBit[name],
		})
	}
	fieldsEnd := int32(len(c.p.fields))

	reqOff := int32(len(c.p.reqs))
	var bits uint64
	for _, name := range reqNames {
		child := n.Fields[name]
		var cf uint8
		if flags&flagRoot != 0 && name == "metadata" {
			cf = flagMeta
		}
		c.p.reqs = append(c.p.reqs, reqRef{
			name:  name,
			path:  c.pathID(joinPath(path, name)),
			kind:  child.Kind,
			flags: cf,
		})
		bits |= reqBit[name]
	}
	reqEnd := int32(len(c.p.reqs))

	nd := node{
		op: opMap, flags: flags, path: pid,
		fieldsOff: fieldsOff, fieldsEnd: fieldsEnd,
		reqOff: reqOff, reqEnd: reqEnd, reqBits: bits,
	}
	if many {
		nd.flags |= flagReqMany
	}
	return c.alloc(nd), nil
}

func (c *compiler) lowerScalar(n *validator.Node, path string, pid int32, flags uint8) (int32, error) {
	if flags&(flagRoot|flagMeta) != 0 {
		// At these two positions the interpreted engine compares
		// against a scrubbed copy of the request map; a locked or
		// map-valued scalar here could see a different value than the
		// compiled engine's in-place view. Build/Union never emit
		// these shapes, so refuse them rather than diverge.
		if n.Locked {
			return 0, fmt.Errorf("%s: locked scalar at a scrubbed position is unsupported", pathOrRoot(path))
		}
		for _, v := range n.Values {
			if _, ok := v.(map[string]any); ok {
				return 0, fmt.Errorf("%s: map-valued scalar at a scrubbed position is unsupported", pathOrRoot(path))
			}
		}
	}
	sc := scalar{
		typ:    n.Type,
		locked: n.Locked,
		values: append([]any(nil), n.Values...),
	}
	for _, v := range n.Values {
		if s, ok := v.(string); ok {
			if sc.strings == nil {
				sc.strings = map[string]bool{}
			}
			sc.strings[s] = true
		}
	}
	// Eager pattern compilation, preserving the interpreted engine's
	// tolerance: uncompilable patterns are skipped, not fatal.
	for _, pat := range n.Patterns {
		if re, err := regexp.Compile(pat); err == nil {
			sc.regexps = append(sc.regexps, re)
		}
	}
	// Matcher specialization for the common shapes.
	switch {
	case !sc.locked && sc.typ != "" && len(sc.values) == 0 && len(sc.regexps) == 0:
		sc.kind = scalarType
	case !sc.locked && sc.typ == "" && len(sc.regexps) == 0 &&
		len(sc.values) == 1 && len(sc.strings) == 1:
		sc.kind = scalarExact
		for s := range sc.strings {
			sc.exact = s
		}
	case !sc.locked && sc.typ == "" && len(sc.regexps) == 0 &&
		len(sc.values) > 0 && len(sc.strings) == len(sc.values):
		sc.kind = scalarSet
	default:
		sc.kind = scalarGeneric
	}
	c.p.scalars = append(c.p.scalars, sc)
	return c.alloc(node{op: opScalar, flags: flags, path: pid,
		scalar: int32(len(c.p.scalars) - 1)}), nil
}

func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

func pathOrRoot(path string) string {
	if path == "" {
		return "(root)"
	}
	return path
}
