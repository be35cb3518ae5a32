package validator

import (
	"fmt"
	"sort"
)

// Union combines per-workload policies into one cluster policy: a request
// is allowed if it conforms to the union of what the workloads may do.
// This serves the deployment mode where a single KubeFence proxy fronts an
// API server shared by several operators; per-kind trees merge node by
// node, widening scalar domains and unioning field sets.
//
// Union preserves soundness in one direction only: anything allowed by
// some input policy is allowed by the union. Cross-workload couplings are
// lost (workload A's enum values become acceptable in workload B's
// objects of the same kind), which is the same trade-off the per-kind
// consolidation already makes within one chart.
func Union(name string, policies ...*Validator) (*Validator, error) {
	if len(policies) == 0 {
		return nil, fmt.Errorf("validator: union of zero policies")
	}
	out := &Validator{
		Workload:    name,
		Kinds:       map[string]*Node{},
		APIVersions: map[string]map[string]bool{},
		Mode:        policies[0].Mode,
	}
	for _, p := range policies {
		if p.Mode != out.Mode {
			return nil, fmt.Errorf("validator: union requires a uniform lock mode")
		}
		for kind, root := range p.Kinds {
			out.Kinds[kind] = mergeNodes(out.Kinds[kind], root)
		}
		for kind, avs := range p.APIVersions {
			if out.APIVersions[kind] == nil {
				out.APIVersions[kind] = map[string]bool{}
			}
			for av := range avs {
				out.APIVersions[kind][av] = true
			}
		}
	}
	return out, nil
}

// mergeNodes unions two validator subtrees. Nil inputs pass the other
// side through; structural conflicts generalize to KindAny, mirroring the
// builder's behavior.
func mergeNodes(a, b *Node) *Node {
	if a == nil {
		return cloneNode(b)
	}
	if b == nil {
		return a
	}
	if a.Kind == KindAny || b.Kind == KindAny {
		return &Node{Kind: KindAny}
	}
	if a.Kind != b.Kind {
		return &Node{Kind: KindAny}
	}
	switch a.Kind {
	case KindMap:
		// Required merges with AND when both sides define the node: a
		// requirement only one member imposes would make the union
		// stricter than that other member, breaking the one-direction
		// soundness contract above.
		merged := &Node{Kind: KindMap, Fields: map[string]*Node{},
			Required: a.Required && b.Required}
		for k, v := range a.Fields {
			merged.Fields[k] = v
		}
		for _, k := range sortedNodeKeys(b.Fields) {
			merged.Fields[k] = mergeNodes(merged.Fields[k], b.Fields[k])
		}
		// For the same reason a field only one side knows is optional
		// here: the other side lets a request omit it. Below that field
		// only its own side applies, so its subtree keeps its
		// requirements.
		for k, n := range merged.Fields {
			_, inA := a.Fields[k]
			_, inB := b.Fields[k]
			if inA != inB && n.Required {
				optional := cloneNode(n)
				optional.Required = false
				merged.Fields[k] = optional
			}
		}
		return merged
	case KindList:
		return &Node{Kind: KindList, Item: mergeNodes(a.Item, b.Item),
			Required: a.Required && b.Required}
	default: // KindScalar
		merged := &Node{
			Kind:     KindScalar,
			Type:     mergeType(a.Type, b.Type),
			Locked:   a.Locked || b.Locked,
			Required: a.Required && b.Required,
		}
		for _, p := range a.Patterns {
			merged.addPattern(p)
		}
		for _, p := range b.Patterns {
			merged.addPattern(p)
		}
		for _, v := range a.Values {
			merged.addValue(v)
		}
		for _, v := range b.Values {
			merged.addValue(v)
		}
		return merged
	}
}

func cloneNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	out := &Node{
		Kind:     n.Kind,
		Type:     n.Type,
		Locked:   n.Locked,
		Required: n.Required,
	}
	out.Patterns = append(out.Patterns, n.Patterns...)
	out.Values = append(out.Values, n.Values...)
	if n.Fields != nil {
		out.Fields = make(map[string]*Node, len(n.Fields))
		keys := make([]string, 0, len(n.Fields))
		for k := range n.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out.Fields[k] = cloneNode(n.Fields[k])
		}
	}
	out.Item = cloneNode(n.Item)
	return out
}
