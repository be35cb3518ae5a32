// Package apischema encodes a catalog of the configurable fields exposed by
// the Kubernetes API for the 20 resource kinds studied in the paper's
// Fig. 9. The catalog is the measuring stick for attack-surface
// quantification: the total number of configurable fields per endpoint
// (paper §VI-B counts 4,882 across all endpoints) and the subset a given
// workload's validator actually allows.
//
// The field trees mirror the upstream OpenAPI schema shapes for Kubernetes
// 1.28: the PodSpec tree (containers, initContainers, ephemeralContainers,
// the full volume-source family, affinity, topology spread, security
// contexts, probes, lifecycle hooks, …) is shared by Pod and by the
// workload kinds that embed a pod template (Deployment, StatefulSet, Job,
// CronJob), exactly as upstream.
package apischema

import (
	"sort"
	"strings"
)

// FieldType classifies a leaf field's value domain.
type FieldType int

// Field type constants. Object and List nodes carry children; the rest are
// leaves.
const (
	TypeObject FieldType = iota + 1
	TypeList             // list of objects (children) or scalars (no children)
	TypeString
	TypeInt
	TypeBool
	TypeFloat
	TypeIP
	TypeStringMap // map[string]string, e.g. labels
)

// Field is a node in a resource's configurable-field tree.
type Field struct {
	Name     string
	Type     FieldType
	Children []Field
}

// Resource is the catalog entry for one API endpoint (kind).
type Resource struct {
	Kind   string
	Fields []Field
}

// Count returns the number of configurable fields in the resource: every
// named node in the tree, nested fields included.
func (r Resource) Count() int {
	n := 0
	for _, f := range r.Fields {
		n += f.count()
	}
	return n
}

func (f Field) count() int {
	n := 1
	for _, c := range f.Children {
		n += c.count()
	}
	return n
}

// Paths returns the dotted path of every field in the resource, sorted.
// List children share their parent's path segment (no indices), matching
// the validator's path model.
func (r Resource) Paths() []string {
	var out []string
	for _, f := range r.Fields {
		f.paths("", &out)
	}
	sort.Strings(out)
	return out
}

func (f Field) paths(prefix string, out *[]string) {
	p := f.Name
	if prefix != "" {
		p = prefix + "." + f.Name
	}
	*out = append(*out, p)
	for _, c := range f.Children {
		c.paths(p, out)
	}
}

// Lookup returns the catalog entry for a kind.
func Lookup(kind string) (Resource, bool) {
	for _, r := range Catalog() {
		if r.Kind == kind {
			return r, true
		}
	}
	return Resource{}, false
}

// TotalFields sums Count over the whole catalog (the paper's 4,882-field
// denominator).
func TotalFields() int {
	n := 0
	for _, r := range Catalog() {
		n += r.Count()
	}
	return n
}

// Kinds lists the catalog's kinds in Fig. 9 column order.
func Kinds() []string {
	out := make([]string, 0, len(Catalog()))
	for _, r := range Catalog() {
		out = append(out, r.Kind)
	}
	return out
}

// HasPath reports whether the dotted path (or one of its ancestors, for
// paths that descend into uncataloged free-form maps such as labels)
// belongs to the resource's field tree.
func (r Resource) HasPath(path string) bool {
	segs := strings.Split(path, ".")
	return hasPath(r.Fields, segs)
}

func hasPath(fields []Field, segs []string) bool {
	if len(segs) == 0 {
		return true
	}
	for _, f := range fields {
		if f.Name != segs[0] {
			continue
		}
		if len(segs) == 1 {
			return true
		}
		// Free-form maps accept arbitrary sub-keys.
		if f.Type == TypeStringMap {
			return true
		}
		return hasPath(f.Children, segs[1:])
	}
	return false
}
