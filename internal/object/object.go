// Package object provides the unstructured Kubernetes object model used
// throughout KubeFence: manifests decoded to map[string]any trees, group/
// version/kind (GVK) routing between kinds and REST endpoints, deep
// copy/get/set helpers, and dotted field-path utilities.
package object

import (
	"fmt"
	"strings"

	"repro/internal/yaml"
)

// Object is an unstructured Kubernetes object: the decoded form of a
// manifest. Values are map[string]any, []any, string, bool, int64,
// float64, or nil.
type Object map[string]any

// ParseManifest decodes a single-document YAML manifest into an Object.
func ParseManifest(data []byte) (Object, error) {
	v, err := yaml.Decode(data)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, fmt.Errorf("object: empty manifest")
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("object: manifest root is %T, want mapping", v)
	}
	return Object(m), nil
}

// ParseManifests decodes a multi-document YAML stream, skipping empty docs.
func ParseManifests(data []byte) ([]Object, error) {
	docs, err := yaml.DecodeAll(data)
	if err != nil {
		return nil, err
	}
	var out []Object
	for _, d := range docs {
		if d == nil {
			continue
		}
		m, ok := d.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("object: document root is %T, want mapping", d)
		}
		if len(m) == 0 {
			continue
		}
		out = append(out, Object(m))
	}
	return out, nil
}

// MarshalYAML renders the object as deterministic YAML.
func (o Object) MarshalYAML() ([]byte, error) {
	return yaml.Marshal(map[string]any(o))
}

// Kind returns the object's kind, or "".
func (o Object) Kind() string {
	s, _ := o["kind"].(string)
	return s
}

// APIVersion returns the object's apiVersion, or "".
func (o Object) APIVersion() string {
	s, _ := o["apiVersion"].(string)
	return s
}

// Name returns metadata.name, or "".
func (o Object) Name() string {
	s, _ := GetString(o, "metadata.name")
	return s
}

// Namespace returns metadata.namespace, or "".
func (o Object) Namespace() string {
	s, _ := GetString(o, "metadata.namespace")
	return s
}

// SetNamespace sets metadata.namespace, creating metadata if needed.
func (o Object) SetNamespace(ns string) {
	md, ok := o["metadata"].(map[string]any)
	if !ok {
		md = map[string]any{}
		o["metadata"] = md
	}
	md["namespace"] = ns
}

// GVK returns the object's group/version/kind.
func (o Object) GVK() GVK {
	return FromAPIVersionKind(o.APIVersion(), o.Kind())
}

// DeepCopy returns a structurally independent copy of the object.
func (o Object) DeepCopy() Object {
	return Object(DeepCopyValue(map[string]any(o)).(map[string]any))
}

// DeepCopyValue copies an arbitrary decoded-YAML value tree.
func DeepCopyValue(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, val := range t {
			out[k] = DeepCopyValue(val)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, val := range t {
			out[i] = DeepCopyValue(val)
		}
		return out
	default:
		return v
	}
}

// Get retrieves the value at a dotted path ("spec.template.spec"). Path
// segments index into mappings only; use GetAt for list indices.
func Get(o map[string]any, path string) (any, bool) {
	cur := any(o)
	for _, seg := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		cur, ok = m[seg]
		if !ok {
			return nil, false
		}
	}
	return cur, true
}

// GetString retrieves a string at a dotted path.
func GetString(o map[string]any, path string) (string, bool) {
	v, ok := Get(o, path)
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}

// GetMap retrieves a mapping at a dotted path.
func GetMap(o map[string]any, path string) (map[string]any, bool) {
	v, ok := Get(o, path)
	if !ok {
		return nil, false
	}
	m, ok := v.(map[string]any)
	return m, ok
}

// GetSlice retrieves a sequence at a dotted path.
func GetSlice(o map[string]any, path string) ([]any, bool) {
	v, ok := Get(o, path)
	if !ok {
		return nil, false
	}
	s, ok := v.([]any)
	return s, ok
}

// Set writes a value at a dotted path, creating intermediate mappings.
// It fails if an intermediate segment exists and is not a mapping.
func Set(o map[string]any, path string, value any) error {
	segs := strings.Split(path, ".")
	cur := o
	for i, seg := range segs[:len(segs)-1] {
		next, ok := cur[seg]
		if !ok || next == nil {
			nm := map[string]any{}
			cur[seg] = nm
			cur = nm
			continue
		}
		nm, ok := next.(map[string]any)
		if !ok {
			return fmt.Errorf("object: path %q blocked at %q by %T",
				path, strings.Join(segs[:i+1], "."), next)
		}
		cur = nm
	}
	cur[segs[len(segs)-1]] = value
	return nil
}

// Delete removes the value at a dotted path. Missing paths are a no-op.
func Delete(o map[string]any, path string) {
	segs := strings.Split(path, ".")
	cur := o
	for _, seg := range segs[:len(segs)-1] {
		next, ok := cur[seg].(map[string]any)
		if !ok {
			return
		}
		cur = next
	}
	delete(cur, segs[len(segs)-1])
}

// Equal reports deep equality of two decoded-YAML value trees, treating
// integral float64 and int64 as interchangeable (JSON decodes numbers as
// float64 while YAML produces int64).
func Equal(a, b any) bool {
	switch ta := a.(type) {
	case map[string]any:
		tb, ok := b.(map[string]any)
		if !ok || len(ta) != len(tb) {
			return false
		}
		for k, va := range ta {
			vb, ok := tb[k]
			if !ok || !Equal(va, vb) {
				return false
			}
		}
		return true
	case []any:
		tb, ok := b.([]any)
		if !ok || len(ta) != len(tb) {
			return false
		}
		for i := range ta {
			if !Equal(ta[i], tb[i]) {
				return false
			}
		}
		return true
	default:
		return scalarEqual(a, b)
	}
}

// scalarEqual compares scalars exactly. Integer forms (int, int64)
// compare as integers; a float64 equals an integer only when it is an
// exact integral value representing the same number. Comparing through
// float64 for ALL integer pairs (the old behavior) made every int64
// beyond the float53 mantissa equal to its neighbors, so a policy
// pinning runAsUser to 9007199254740993 would also accept ...992.
func scalarEqual(a, b any) bool {
	if a == b {
		return true
	}
	ai, aInt := toInt64(a)
	bi, bInt := toInt64(b)
	switch {
	case aInt && bInt:
		return ai == bi
	case aInt:
		f, ok := b.(float64)
		return ok && FloatEqualsInt(f, ai)
	case bInt:
		f, ok := a.(float64)
		return ok && FloatEqualsInt(f, bi)
	default:
		return false
	}
}

func toInt64(v any) (int64, bool) {
	switch t := v.(type) {
	case int:
		return int64(t), true
	case int64:
		return t, true
	}
	return 0, false
}

// FloatEqualsInt reports whether f is an exact integral float64 whose
// value is i — precision-preserving, unlike comparing float64(i) to f.
// Exported because the compiled engine's raw-bytes matcher (internal/
// compile) must compare parsed integer literals against policy values
// with exactly these semantics.
func FloatEqualsInt(f float64, i int64) bool {
	// 2^63 is exactly representable; everything at or beyond it cannot
	// be a valid int64.
	if f < -9223372036854775808.0 || f >= 9223372036854775808.0 {
		return false
	}
	n := int64(f)
	return float64(n) == f && n == i
}
