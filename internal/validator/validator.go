// Package validator implements the final phases of the KubeFence pipeline:
// consolidating rendered manifests into a single policy validator (paper
// §V-A, Fig. 8) and validating incoming API requests against it with a
// hierarchical tree-overlap comparison (paper §V-B).
//
// A validator is a per-kind schema tree. Scalar nodes accumulate the value
// domains observed across manifests: placeholder tokens generalize to data
// types, composed strings containing embedded tokens become anchored
// patterns (preserving trusted registry/repository prefixes), and plain
// constants union into enumerations. Mapping nodes record the exact set of
// allowed fields — a request using any field outside the schema is denied,
// which is what removes unused attack surface. Security-locked fields keep
// their safe constants and are enforced even when the rest of the node
// generalizes.
package validator

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/object"
	"repro/internal/schema"
	"repro/internal/yaml"
)

// LockMode controls how security-locked fields treat absence.
type LockMode int

const (
	// LockIfPresent permits omitting a locked field but denies non-safe
	// values when present (default; matches chart-rendered workloads that
	// omit optional security fields).
	LockIfPresent LockMode = iota + 1
	// LockRequired additionally denies requests that omit a locked field
	// ("missing critical fields are explicitly added", §V-A).
	LockRequired
)

// NodeKind classifies validator nodes.
type NodeKind int

// Validator node kinds.
const (
	KindAny    NodeKind = iota + 1 // free-form subtree (labels, annotations)
	KindScalar                     // leaf with Type / Patterns / Values domains
	KindMap                        // fixed field set
	KindList                       // homogeneous item schema
)

// Node is one node of a validator tree.
type Node struct {
	Kind NodeKind

	// Scalar domains; a value is allowed if it matches any of them.
	Type     string   // placeholder token ("string", "int", …), "" if unset
	Patterns []string // anchored regexps from composed placeholder strings
	Values   []any    // allowed constants (enumeration)

	Fields map[string]*Node // KindMap
	Item   *Node            // KindList

	// Locked marks a security-critical field: only Values are allowed
	// regardless of Type/Patterns, and LockRequired mode demands presence.
	Locked bool
	// Required marks locked fields that LockRequired mode demands.
	Required bool

	// compiled caches the compiled Patterns. It is published with an
	// atomic pointer because one validator serves many concurrent
	// request goroutines; racing compilations are idempotent.
	compiled atomic.Pointer[[]*regexp.Regexp]
}

// Validator is a consolidated policy for one workload.
type Validator struct {
	// Workload names the operator this policy was generated for.
	Workload string
	// Kinds maps resource kind to its object schema.
	Kinds map[string]*Node
	// APIVersions records the allowed apiVersion strings per kind.
	APIVersions map[string]map[string]bool
	// Mode is the lock-enforcement mode.
	Mode LockMode
}

// Violation describes one reason a request was denied.
type Violation struct {
	Path   string // dotted field path, "" for object-level violations
	Reason string
	Got    string // rendering of the offending value
}

// String renders the violation for logs and HTTP error bodies.
func (v Violation) String() string {
	if v.Path == "" {
		return v.Reason
	}
	if v.Got == "" {
		return fmt.Sprintf("%s: %s", v.Path, v.Reason)
	}
	return fmt.Sprintf("%s: %s (got %s)", v.Path, v.Reason, v.Got)
}

// BuildOptions configure validator consolidation.
type BuildOptions struct {
	// Workload names the policy.
	Workload string
	// ReleaseName is the Helm release name the manifests were rendered
	// with. Scalars containing it are release-dependent (object names,
	// instance labels) and generalize to type string.
	ReleaseName string
	// Locks lists the security locks to mark (defaults to the manifest
	// projection of schema.DefaultLocks()).
	Locks []LockSpec
	// Mode selects lock enforcement; zero value means LockIfPresent.
	Mode LockMode
	// GeneralizeAny lists path suffixes forced to KindAny. Defaults cover
	// labels/annotations and selector maps, which tooling freely extends.
	GeneralizeAny []string
	// GeneralizeString lists path suffixes forced to scalar type string
	// (object names and namespaces vary per installation).
	GeneralizeString []string
	// RequiredPaths lists path suffixes that, when present in the
	// consolidated tree, become mandatory in requests (enforced in every
	// lock mode). The default requires containers.resources.limits
	// wherever the chart renders it, blocking the paper's E5 attack
	// ("Absent Resource Limit") without constraining containers whose
	// chart never set limits.
	RequiredPaths []string
}

// LockSpec marks manifest paths as security-locked.
type LockSpec struct {
	// PathSuffix matches dotted manifest paths on segment boundaries,
	// e.g. "securityContext.runAsNonRoot".
	PathSuffix string
	// Require marks the field as mandatory under LockRequired mode.
	Require bool
}

// DefaultLockSpecs projects the schema-phase security locks onto manifest
// paths.
func DefaultLockSpecs() []LockSpec {
	return []LockSpec{
		{PathSuffix: "securityContext.runAsNonRoot", Require: true},
		{PathSuffix: "securityContext.allowPrivilegeEscalation"},
		{PathSuffix: "securityContext.privileged"},
		{PathSuffix: "securityContext.readOnlyRootFilesystem"},
		{PathSuffix: "hostNetwork"},
		{PathSuffix: "hostPID"},
		{PathSuffix: "hostIPC"},
	}
}

// DefaultGeneralizeAny exports the free-form-subtree defaults so
// traffic-driven policy mining (internal/learn) generalizes the same
// paths chart consolidation does; a mined policy and a chart policy for
// the same workload stay diffable field for field.
func DefaultGeneralizeAny() []string { return defaultGeneralizeAny() }

func defaultGeneralizeAny() []string {
	return []string{
		"metadata.labels", "metadata.annotations",
		"matchLabels", "spec.selector", "nodeSelector",
	}
}

func defaultGeneralizeString() []string {
	return []string{
		"metadata.name", "metadata.generateName",
		// Namespaces vary per installation wherever they appear
		// (metadata, RBAC subjects, webhook client configs).
		"namespace",
		// List-item identifiers generalize to string (paper Fig. 8 shows
		// "- name: string" for containers and ports).
		"containers.name", "initContainers.name", "ephemeralContainers.name",
		"ports.name", "volumes.name", "volumeMounts.name", "imagePullSecrets.name",
	}
}

// Build consolidates rendered manifests (across all values variants) into
// a validator.
func Build(objs []object.Object, opts BuildOptions) (*Validator, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("validator: no manifests to consolidate")
	}
	if opts.Locks == nil {
		opts.Locks = DefaultLockSpecs()
	}
	if opts.GeneralizeAny == nil {
		opts.GeneralizeAny = defaultGeneralizeAny()
	}
	if opts.GeneralizeString == nil {
		opts.GeneralizeString = defaultGeneralizeString()
	}
	if opts.Mode == 0 {
		opts.Mode = LockIfPresent
	}
	if opts.RequiredPaths == nil {
		opts.RequiredPaths = []string{"containers.resources.limits"}
	}
	b := &builder{opts: opts}
	v := &Validator{
		Workload:    opts.Workload,
		Kinds:       map[string]*Node{},
		APIVersions: map[string]map[string]bool{},
		Mode:        opts.Mode,
	}
	for _, o := range objs {
		kind := o.Kind()
		if kind == "" {
			return nil, fmt.Errorf("validator: manifest without kind")
		}
		if v.APIVersions[kind] == nil {
			v.APIVersions[kind] = map[string]bool{}
		}
		if av := o.APIVersion(); av != "" {
			v.APIVersions[kind][av] = true
		}
		body := o.DeepCopy()
		delete(body, "apiVersion")
		delete(body, "kind")
		v.Kinds[kind] = b.merge(v.Kinds[kind], map[string]any(body), "")
	}
	for _, root := range v.Kinds {
		markRequired(root, "", opts.RequiredPaths)
	}
	return v, nil
}

// markRequired sets Required on existing nodes whose path matches one of
// the required suffixes, and propagates the requirement up the ancestor
// chain: if limits must be present wherever the chart renders it, a
// request must not satisfy the policy by deleting the enclosing
// resources (or containers) field altogether — the adversarial mutation
// study showed that variant of E5 slipping through otherwise. It reports
// whether the node's subtree contains a required node.
func markRequired(n *Node, path string, required []string) bool {
	found := false
	for _, suffix := range required {
		if suffixMatch(path, suffix) {
			n.Required = true
			found = true
		}
	}
	switch n.Kind {
	case KindMap:
		for k, c := range n.Fields {
			if markRequired(c, joinPath(path, k), required) {
				c.Required = true
				found = true
			}
		}
	case KindList:
		if n.Item != nil && markRequired(n.Item, path, required) {
			found = true
		}
	}
	return found
}

type builder struct {
	opts BuildOptions
}

func (b *builder) isLocked(path string) (LockSpec, bool) {
	for _, l := range b.opts.Locks {
		if suffixMatch(path, l.PathSuffix) {
			return l, true
		}
	}
	return LockSpec{}, false
}

func (b *builder) forcedAny(path string) bool {
	for _, s := range b.opts.GeneralizeAny {
		if suffixMatch(path, s) {
			return true
		}
	}
	return false
}

func (b *builder) forcedString(path string) bool {
	for _, s := range b.opts.GeneralizeString {
		if suffixMatch(path, s) {
			return true
		}
	}
	return false
}

// merge folds a manifest value into the node for its path.
func (b *builder) merge(n *Node, v any, path string) *Node {
	if b.forcedAny(path) {
		return &Node{Kind: KindAny}
	}
	if n != nil && n.Kind == KindAny {
		return n
	}
	if b.forcedString(path) {
		return &Node{Kind: KindScalar, Type: schema.TokString}
	}
	switch t := v.(type) {
	case map[string]any:
		if n == nil {
			n = &Node{Kind: KindMap, Fields: map[string]*Node{}}
		}
		if n.Kind != KindMap {
			// Structural conflict across manifests: generalize.
			return &Node{Kind: KindAny}
		}
		for k, val := range t {
			n.Fields[k] = b.merge(n.Fields[k], val, joinPath(path, k))
		}
		return n
	case []any:
		if n == nil {
			n = &Node{Kind: KindList}
		}
		if n.Kind != KindList {
			return &Node{Kind: KindAny}
		}
		for _, item := range t {
			n.Item = b.merge(n.Item, item, path)
		}
		return n
	default:
		return b.mergeScalar(n, t, path)
	}
}

func (b *builder) mergeScalar(n *Node, v any, path string) *Node {
	if n == nil {
		n = &Node{Kind: KindScalar}
	}
	if n.Kind != KindScalar {
		return &Node{Kind: KindAny}
	}
	lock, locked := b.isLocked(path)
	if locked {
		n.Locked = true
		n.Required = n.Required || lock.Require
		n.addValue(v)
		return n
	}
	// Release-dependent strings generalize to type string.
	if s, ok := v.(string); ok && b.opts.ReleaseName != "" && strings.Contains(s, b.opts.ReleaseName) {
		n.Type = mergeType(n.Type, schema.TokString)
		return n
	}
	if tok, ok := schema.IsPlaceholderToken(v); ok {
		n.Type = mergeType(n.Type, tok)
		return n
	}
	if s, ok := v.(string); ok {
		if pat, embedded := embeddedPattern(s); embedded {
			n.addPattern(pat)
			return n
		}
	}
	// Scalar-typed generalization for list items is handled by the caller
	// keeping a single Item schema: constants union into an enumeration.
	n.addValue(v)
	return n
}

func (n *Node) addValue(v any) {
	for _, existing := range n.Values {
		if object.Equal(existing, v) {
			return
		}
	}
	n.Values = append(n.Values, v)
}

func (n *Node) addPattern(p string) {
	for _, existing := range n.Patterns {
		if existing == p {
			return
		}
	}
	n.Patterns = append(n.Patterns, p)
	n.compiled.Store(nil)
}

// mergeType widens a type token. string subsumes IP; float subsumes int.
func mergeType(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	if a == b {
		return a
	}
	pair := a + "/" + b
	switch pair {
	case "string/IP", "IP/string":
		return schema.TokString
	case "int/float", "float/int":
		return schema.TokFloat
	default:
		return schema.TokString
	}
}

// sentinelRe finds render sentinels embedded in composed strings
// ("docker.io/bitnami/mlflow:__KF_STRING__"). Sentinels cannot collide
// with chart content, so no boundary context is needed.
var sentinelRe = regexp.MustCompile(`__KF_(STRING|INT|FLOAT|BOOL|IP)__`)

// embeddedPattern converts a composed string containing placeholder
// sentinels into an anchored regexp where each sentinel matches its
// type's value grammar. The fixed parts remain literal, so trusted
// prefixes (registry, repository) stay enforced against typosquatting.
func embeddedPattern(s string) (string, bool) {
	if !sentinelRe.MatchString(s) {
		return "", false
	}
	var b strings.Builder
	b.WriteString("^")
	rest := s
	for rest != "" {
		loc := sentinelRe.FindStringIndex(rest)
		if loc == nil {
			b.WriteString(regexp.QuoteMeta(rest))
			break
		}
		b.WriteString(regexp.QuoteMeta(rest[:loc[0]]))
		switch rest[loc[0]:loc[1]] {
		case "__KF_STRING__":
			b.WriteString(`[^\s]*`)
		case "__KF_INT__":
			b.WriteString(`-?\d+`)
		case "__KF_FLOAT__":
			b.WriteString(`-?\d+(\.\d+)?`)
		case "__KF_BOOL__":
			b.WriteString(`(true|false)`)
		case "__KF_IP__":
			b.WriteString(`(\d{1,3}\.){3}\d{1,3}`)
		}
		rest = rest[loc[1]:]
	}
	b.WriteString("$")
	return b.String(), true
}

func suffixMatch(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "."+suffix)
}

func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// ---------------------------------------------------------------------
// Validation (paper §V-B)
// ---------------------------------------------------------------------

// ScrubRootKey reports whether a top-level request key is removed
// before tree comparison: apiVersion and kind are matched separately,
// and status is server-populated, never part of the policy. The
// predicate is the single source of truth shared with the compiled
// engine (internal/compile), which skips these keys in place instead
// of deleting them from a copy — the two engines must agree on the
// scrub or their verdicts diverge.
func ScrubRootKey(k string) bool {
	switch k {
	case "apiVersion", "kind", "status":
		return true
	}
	return false
}

// ScrubMetaKey reports whether a metadata key is server-owned and
// removed before tree comparison: these fields appear in
// read-modify-write updates and are not client-controllable attack
// surface. Shared with the compiled engine like ScrubRootKey.
func ScrubMetaKey(k string) bool {
	switch k {
	case "resourceVersion", "uid", "generation", "creationTimestamp",
		"managedFields", "selfLink":
		return true
	}
	return false
}

// Validate checks an incoming request object against the policy. A nil or
// empty result means the request is allowed.
func (v *Validator) Validate(o object.Object) []Violation {
	kind := o.Kind()
	if kind == "" {
		return []Violation{{Reason: "request object has no kind"}}
	}
	root, ok := v.Kinds[kind]
	if !ok {
		return []Violation{{Reason: fmt.Sprintf("kind %s is not used by workload %s", Bounded(kind), v.Workload)}}
	}
	if avs := v.APIVersions[kind]; len(avs) > 0 {
		if av := o.APIVersion(); av != "" && !avs[av] {
			return []Violation{{Path: "apiVersion",
				Reason: "apiVersion not allowed for kind " + kind, Got: Bounded(av)}}
		}
	}
	body := map[string]any(o.DeepCopy())
	for k := range body {
		if ScrubRootKey(k) {
			delete(body, k)
		}
	}
	if md, ok := body["metadata"].(map[string]any); ok {
		for k := range md {
			if ScrubMetaKey(k) {
				delete(md, k)
			}
		}
	}
	var out []Violation
	v.validateNode(root, body, "", &out)
	return out
}

func (v *Validator) validateNode(n *Node, val any, path string, out *[]Violation) {
	if n == nil {
		*out = append(*out, Violation{Path: path, Reason: "field not allowed by policy"})
		return
	}
	switch n.Kind {
	case KindAny:
		return
	case KindMap:
		m, ok := val.(map[string]any)
		if !ok {
			*out = append(*out, Violation{Path: path,
				Reason: "expected object", Got: TypeName(val)})
			return
		}
		for _, k := range sortedKeys(m) {
			child, allowed := n.Fields[k]
			if !allowed {
				*out = append(*out, Violation{Path: UnlistedPath(path, k),
					Reason: "field not allowed by policy"})
				continue
			}
			v.validateNode(child, m[k], joinPath(path, k), out)
		}
		for _, k := range sortedNodeKeys(n.Fields) {
			child := n.Fields[k]
			if !child.Required {
				continue
			}
			// Locked-and-required fields are only demanded in the strict
			// lock mode; plain required fields (RequiredPaths) always are.
			if child.Locked && v.Mode != LockRequired {
				continue
			}
			val, present := m[k]
			if !present {
				*out = append(*out, Violation{Path: joinPath(path, k),
					Reason: "security-critical field must be present"})
				continue
			}
			// An empty stand-in ({} or []) defeats the requirement the
			// same way absence would: a required subtree must keep content.
			switch child.Kind {
			case KindMap:
				if mm, ok := val.(map[string]any); ok && len(mm) == 0 {
					*out = append(*out, Violation{Path: joinPath(path, k),
						Reason: "security-critical field must not be empty"})
				}
			case KindList:
				if ll, ok := val.([]any); ok && len(ll) == 0 {
					*out = append(*out, Violation{Path: joinPath(path, k),
						Reason: "security-critical field must not be empty"})
				}
			}
		}
	case KindList:
		items, ok := val.([]any)
		if !ok {
			*out = append(*out, Violation{Path: path,
				Reason: "expected list", Got: TypeName(val)})
			return
		}
		for _, item := range items {
			v.validateNode(n.Item, item, path, out)
		}
	case KindScalar:
		v.validateScalar(n, val, path, out)
	}
}

func (v *Validator) validateScalar(n *Node, val any, path string, out *[]Violation) {
	if _, isMap := val.(map[string]any); isMap && n.Type != schema.TokDict {
		*out = append(*out, Violation{Path: path, Reason: "expected scalar, got object"})
		return
	}
	if _, isList := val.([]any); isList && n.Type != schema.TokList {
		*out = append(*out, Violation{Path: path, Reason: "expected scalar, got list"})
		return
	}
	if n.Locked {
		for _, allowed := range n.Values {
			if object.Equal(allowed, val) {
				return
			}
		}
		*out = append(*out, Violation{Path: path,
			Reason: "security-locked field set to unsafe value", Got: RenderValue(val)})
		return
	}
	if n.Type != "" && TypeMatches(n.Type, val) {
		return
	}
	if s, ok := val.(string); ok {
		for _, re := range n.regexps() {
			if re.MatchString(s) {
				return
			}
		}
	}
	for _, allowed := range n.Values {
		if object.Equal(allowed, val) {
			return
		}
	}
	*out = append(*out, Violation{Path: path,
		Reason: "value outside the domain allowed by policy", Got: RenderValue(val)})
}

func (n *Node) regexps() []*regexp.Regexp {
	if res := n.compiled.Load(); res != nil {
		return *res
	}
	if len(n.Patterns) == 0 {
		return nil
	}
	res := make([]*regexp.Regexp, 0, len(n.Patterns))
	for _, p := range n.Patterns {
		if re, err := regexp.Compile(p); err == nil {
			res = append(res, re)
		}
	}
	n.compiled.Store(&res)
	return res
}

var (
	ipValueRe    = regexp.MustCompile(`^(\d{1,3}\.){3}\d{1,3}$`)
	intValueRe   = regexp.MustCompile(`^-?\d+$`)
	floatValueRe = regexp.MustCompile(`^-?\d+(\.\d+)?$`)
)

// TypeMatches checks a request value against a placeholder token. String
// renderings of numbers and booleans are accepted for the numeric and bool
// tokens: charts quote values in string-typed positions (env vars,
// annotations), so the placeholder was itself observed in quoted form.
// Exported because the compiled engine (internal/compile) must share the
// exact same value-domain semantics as this interpreted path.
func TypeMatches(tok string, v any) bool {
	switch tok {
	case schema.TokString:
		_, ok := v.(string)
		return ok
	case schema.TokInt:
		switch t := v.(type) {
		case int64, int:
			return true
		case float64:
			return t == float64(int64(t))
		case string:
			return intValueRe.MatchString(t)
		}
		return false
	case schema.TokFloat:
		switch t := v.(type) {
		case int64, int, float64:
			return true
		case string:
			return floatValueRe.MatchString(t)
		}
		return false
	case schema.TokBool:
		switch t := v.(type) {
		case bool:
			return true
		case string:
			return t == "true" || t == "false"
		}
		return false
	case schema.TokIP:
		s, ok := v.(string)
		return ok && ipValueRe.MatchString(s)
	case schema.TokList:
		_, ok := v.([]any)
		return ok
	case schema.TokDict:
		_, ok := v.(map[string]any)
		return ok
	}
	return false
}

// TypeName names a request value's JSON type for violation messages.
// Shared with internal/compile so both engines render identical reasons.
func TypeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case string:
		return "string"
	case bool:
		return "bool"
	case int64, int:
		return "int"
	case float64:
		return "float"
	case []any:
		return "list"
	case map[string]any:
		return "object"
	default:
		return fmt.Sprintf("%T", v)
	}
}

// RenderValue renders an offending value for violation messages, bounded
// by Bounded. Shared with internal/compile, whose raw walker renders a
// wire token through Bounded too, so every engine renders identical
// reasons.
func RenderValue(v any) string {
	switch t := v.(type) {
	case nil:
		return "null"
	case string:
		return Bounded(t)
	}
	return Bounded(fmt.Sprintf("%v", v))
}

// MaxRender bounds the bytes of an offending value a violation keeps: a
// violation is retained by the proxy's denial log and echoed in the 403,
// so its size must not be the attacker's to choose.
const MaxRender = 256

// Bounded returns s as a string of at most MaxRender bytes of it: s itself
// when it fits, else its first MaxRender bytes, cut back to a rune
// boundary, and a marker giving the full length. The result never aliases
// s.
func Bounded[T string | []byte](s T) string {
	if len(s) <= MaxRender {
		return string(s)
	}
	cut := MaxRender
	for i := 1; i < utf8.UTFMax && !utf8.RuneStart(s[cut]); i++ {
		cut--
	}
	return string(s[:cut]) + "...(" + strconv.Itoa(len(s)) + " bytes)"
}

// UnlistedPath is the Path of the violation on a key the policy node at
// path does not list. The key is the client's to size, so it is cut by
// Bounded like a Got; the compiled engine and the raw walk name it so
// too.
func UnlistedPath[T string | []byte](path string, key T) string {
	if path == "" {
		return Bounded(key)
	}
	return path + "." + Bounded(key)
}

func sortedKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedNodeKeys(m map[string]*Node) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------
// Introspection & serialization
// ---------------------------------------------------------------------

// AllowedKinds lists the kinds the policy permits, sorted.
func (v *Validator) AllowedKinds() []string {
	out := make([]string, 0, len(v.Kinds))
	for k := range v.Kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// AllowedPaths returns the dotted field paths the policy permits for a
// kind, sorted. KindAny subtrees contribute their own path only. This is
// the numerator of the paper's Fig. 9 utilization percentages.
func (v *Validator) AllowedPaths(kind string) []string {
	root, ok := v.Kinds[kind]
	if !ok {
		return nil
	}
	set := map[string]bool{}
	collectNodePaths(root, "", set)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func collectNodePaths(n *Node, path string, set map[string]bool) {
	if path != "" {
		set[path] = true
	}
	switch n.Kind {
	case KindMap:
		for k, c := range n.Fields {
			collectNodePaths(c, joinPath(path, k), set)
		}
	case KindList:
		if n.Item != nil {
			collectNodePaths(n.Item, path, set)
		}
	}
}

// ToTree renders the validator as a YAML-able tree in the paper's Fig. 8
// notation.
func (v *Validator) ToTree() map[string]any {
	kinds := make(map[string]any, len(v.Kinds))
	for kind, n := range v.Kinds {
		kinds[kind] = n.toTree()
	}
	return kinds
}

func (n *Node) toTree() any {
	switch n.Kind {
	case KindAny:
		return schema.TokDict
	case KindMap:
		out := make(map[string]any, len(n.Fields))
		for k, c := range n.Fields {
			out[k] = c.toTree()
		}
		return out
	case KindList:
		if n.Item == nil {
			return []any{}
		}
		return []any{n.Item.toTree()}
	case KindScalar:
		return n.scalarDoc()
	default:
		return nil
	}
}

func (n *Node) scalarDoc() any {
	var alts []any
	if n.Type != "" {
		alts = append(alts, n.Type)
	}
	patterns := append([]string(nil), n.Patterns...)
	sort.Strings(patterns)
	for _, p := range patterns {
		alts = append(alts, "pattern:"+p)
	}
	// Values accumulate in observation order, which depends on the
	// exploration strategy; sort them so serialized policies are
	// canonical (two explorations covering the same domains serialize
	// identically).
	values := append([]any(nil), n.Values...)
	sort.Slice(values, func(i, j int) bool {
		return fmt.Sprintf("%v", values[i]) < fmt.Sprintf("%v", values[j])
	})
	alts = append(alts, values...)
	if len(alts) == 1 {
		return alts[0]
	}
	return alts
}

// MarshalYAML serializes the validator policy.
func (v *Validator) MarshalYAML() ([]byte, error) {
	return yaml.Marshal(v.ToTree())
}
