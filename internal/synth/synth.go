// Package synth generates a synthetic workload corpus: seeded,
// deterministic (policy, benign-trace) pairs derived from the five
// in-tree charts, so the robustness and learning matrices scale from 5
// hand-written workloads to hundreds of generated ones without
// hand-writing more charts.
//
// Each workload starts from one corpus chart rendered into the
// workload's own namespace and is then perturbed three ways, all driven
// by a per-workload RNG stream:
//
//   - field-path grafting across kinds: whole objects from a donor
//     chart join the workload, and donor container fields (env entries)
//     are grafted into the base workload's pod specs;
//   - value-domain resampling within matcher types: scalar leaves are
//     re-drawn preserving their type (strings stay strings, ints stay
//     ints) so the generated policies pin different enum domains;
//   - field-surface subset/superset perturbation: optional scalar
//     leaves are dropped, and benign extra fields (annotations, grace
//     periods, env flags) are added.
//
// The policy is built AFTER perturbation, from the final objects
// (validator.Build), which makes every pair self-validating by
// construction: the benign trace is exactly the consolidation input.
// Verify re-checks that property through both engines (interpreted
// tree-walk and compiled program) — the contract the fuzz harness and
// the scenarios experiment rely on.
//
// Perturbations deliberately never touch the resources or
// securityContext subtrees and never drop fields named "name": the
// mutation matrix (internal/mutate) expects every workload policy to
// block E5 (absent resource limits) and the securityContext-flipping
// M attacks, which requires those subtrees to survive into the
// consolidated policy unchanged.
//
// Determinism contract: workload i depends only on (Options.Seed, i) —
// never on Count — so a 25-workload corpus is a prefix of the
// 100-workload corpus for the same seed, and a reduced matrix replays
// an exact subset of the full-corpus one.
package synth

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/compile"
	"repro/internal/object"
	"repro/internal/validator"
)

// Options configure corpus generation.
type Options struct {
	// Seed drives every random choice (default 1).
	Seed int64
	// Count is the number of workloads to generate (default 100).
	Count int
	// NamePrefix prefixes workload names and namespaces (default
	// "synth"; workload i is named "<prefix>-<i>", e.g. "synth-007").
	NamePrefix string
	// GraftPercent is the chance (0-100) a workload receives donor-chart
	// grafts (default 60).
	GraftPercent int
	// ResamplePercent is the chance a workload's scalar value domains
	// are resampled (default 80).
	ResamplePercent int
	// SubsetPercent is the chance optional scalar leaves are dropped
	// (default 50).
	SubsetPercent int
	// SupersetPercent is the chance benign extra fields are added
	// (default 50).
	SupersetPercent int
}

// Resolved returns the options with defaults applied — the exact knob
// values a Generate call with these options uses, recorded in reports
// so a run can be reproduced from its output.
func (o Options) Resolved() Options {
	o.defaults()
	return o
}

func (o *Options) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Count == 0 {
		o.Count = 100
	}
	if o.NamePrefix == "" {
		o.NamePrefix = "synth"
	}
	if o.GraftPercent == 0 {
		o.GraftPercent = 60
	}
	if o.ResamplePercent == 0 {
		o.ResamplePercent = 80
	}
	if o.SubsetPercent == 0 {
		o.SubsetPercent = 50
	}
	if o.SupersetPercent == 0 {
		o.SupersetPercent = 50
	}
}

// Workload is one generated (policy, benign-trace) pair.
type Workload struct {
	// Name is the workload name, registry key, and namespace.
	Name string
	// Index is the workload's position in the corpus stream.
	Index int
	// BaseChart is the corpus chart the workload was derived from.
	BaseChart string
	// DonorChart is the chart grafted objects came from ("" when the
	// workload received no grafts).
	DonorChart string
	// Objects is the benign trace: the exact admission bodies the
	// policy was consolidated from.
	Objects []object.Object
	// Policy validates Objects (self-consistent by construction).
	Policy *validator.Validator
}

// Generate derives the corpus. Workload i is a pure function of
// (opts.Seed, i), so corpora of different Counts share a prefix.
func Generate(opts Options) ([]Workload, error) {
	opts.defaults()
	out := make([]Workload, 0, opts.Count)
	for i := 0; i < opts.Count; i++ {
		w, err := generateOne(opts, i)
		if err != nil {
			return nil, fmt.Errorf("synth: workload %d: %w", i, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// Verify checks the pair's self-consistency through both engines: every
// benign object must pass the workload's own policy interpreted and
// compiled, and the two engines must agree object by object.
func Verify(w *Workload) error {
	prog, err := compile.Compile(w.Policy)
	if err != nil {
		return fmt.Errorf("synth: %s: compile: %w", w.Name, err)
	}
	for _, o := range w.Objects {
		iv := w.Policy.Validate(o)
		cv := prog.Validate(o)
		if len(iv) != 0 {
			return fmt.Errorf("synth: %s: benign %s/%s denied by interpreted engine: %v",
				w.Name, o.Kind(), o.Name(), iv)
		}
		if len(cv) != 0 {
			return fmt.Errorf("synth: %s: benign %s/%s denied by compiled engine: %v",
				w.Name, o.Kind(), o.Name(), cv)
		}
	}
	return nil
}

func generateOne(opts Options, index int) (Workload, error) {
	r := newRNG(opts.Seed, index)
	name := fmt.Sprintf("%s-%03d", opts.NamePrefix, index)
	release := fmt.Sprintf("rel%03d", r.intn(1000))

	names := charts.Names()
	baseIdx := r.intn(len(names))
	base := names[baseIdx]
	objs, err := renderInto(base, release, name)
	if err != nil {
		return Workload{}, err
	}

	donor := ""
	if r.pct(opts.GraftPercent) {
		donor = names[(baseIdx+1+r.intn(len(names)-1))%len(names)]
		objs, err = graft(objs, donor, release, name, r)
		if err != nil {
			return Workload{}, err
		}
	}
	if r.pct(opts.ResamplePercent) {
		resample(objs, r)
	}
	if r.pct(opts.SubsetPercent) {
		subset(objs, r)
	}
	if r.pct(opts.SupersetPercent) {
		superset(objs, r)
	}

	pol, err := validator.Build(objs, validator.BuildOptions{
		Workload:    name,
		ReleaseName: release,
	})
	if err != nil {
		return Workload{}, err
	}
	w := Workload{
		Name: name, Index: index,
		BaseChart: base, DonorChart: donor,
		Objects: objs, Policy: pol,
	}
	// The generator's own contract check: the benign trace passes its
	// policy. Build consolidates exactly these objects, so a failure
	// here is a generator bug, never an input problem.
	for _, o := range w.Objects {
		if vs := pol.Validate(o); len(vs) != 0 {
			return Workload{}, fmt.Errorf("pair not self-consistent: %s/%s: %v",
				o.Kind(), o.Name(), vs)
		}
	}
	return w, nil
}

// renderInto renders a corpus chart into the workload's namespace and
// drops cluster-scoped objects: a hundred generated tenants cannot each
// claim the same ClusterRole kind (registry ClusterKinds are exclusive),
// and namespaced surfaces are what the mutation matrix targets.
func renderInto(name, release, namespace string) ([]object.Object, error) {
	c, err := charts.Load(name)
	if err != nil {
		return nil, err
	}
	files, err := c.Render(nil, chart.ReleaseOptions{Name: release, Namespace: namespace})
	if err != nil {
		return nil, err
	}
	var out []object.Object
	for _, o := range chart.Objects(files) {
		ri, ok := object.LookupKind(o.Kind())
		if !ok || !ri.Namespaced {
			continue
		}
		out = append(out, o)
	}
	return out, nil
}

// graft recombines schema surfaces across charts: a few whole objects
// from the donor chart join the workload, and one donor container env
// entry is grafted into each base pod spec's first container.
//
// Object grafts are restricted to kinds the base chart does not render:
// merging two charts' surfaces under one kind tree can make a field
// required (ancestor propagation from the donor's resources.limits) that
// the base chart's own object lacks, breaking self-consistency.
func graft(objs []object.Object, donor, release, namespace string, r *rng) ([]object.Object, error) {
	donorObjs, err := renderInto(donor, release, namespace)
	if err != nil {
		return nil, err
	}
	baseKinds := map[string]bool{}
	for _, o := range objs {
		baseKinds[o.Kind()] = true
	}
	var graftable []object.Object
	for _, o := range donorObjs {
		if !baseKinds[o.Kind()] {
			graftable = append(graftable, o)
		}
	}
	if len(graftable) > 0 {
		take := 1 + r.intn(min(3, len(graftable)))
		start := r.intn(len(graftable))
		for k := 0; k < take; k++ {
			objs = append(objs, graftable[(start+k)%len(graftable)])
		}
	}

	// Container-field graft: carry a simple name/value env entry from a
	// donor pod spec into the base workload's containers.
	if env, ok := donorEnvEntry(donorObjs); ok {
		for _, o := range objs {
			spec, ok := podSpec(o)
			if !ok {
				continue
			}
			cs, ok := spec["containers"].([]any)
			if !ok || len(cs) == 0 {
				continue
			}
			c0, ok := cs[0].(map[string]any)
			if !ok {
				continue
			}
			cur, _ := c0["env"].([]any)
			c0["env"] = append(cur, object.DeepCopyValue(env))
		}
	}
	return objs, nil
}

// donorEnvEntry finds the first plain name/value env entry in the donor
// objects' pod specs (valueFrom references are skipped — they point at
// donor Secrets that may not have been grafted).
func donorEnvEntry(objs []object.Object) (map[string]any, bool) {
	for _, o := range objs {
		spec, ok := podSpec(o)
		if !ok {
			continue
		}
		cs, _ := spec["containers"].([]any)
		for _, c := range cs {
			cm, ok := c.(map[string]any)
			if !ok {
				continue
			}
			envs, _ := cm["env"].([]any)
			for _, e := range envs {
				em, ok := e.(map[string]any)
				if !ok {
					continue
				}
				if _, hasValue := em["value"]; hasValue {
					if _, hasName := em["name"]; hasName {
						return em, true
					}
				}
			}
		}
	}
	return nil, false
}

func podSpec(o object.Object) (map[string]any, bool) {
	switch o.Kind() {
	case "Pod":
		return object.GetMap(o, "spec")
	case "Deployment", "StatefulSet", "DaemonSet", "ReplicaSet", "Job":
		return object.GetMap(o, "spec.template.spec")
	case "CronJob":
		return object.GetMap(o, "spec.jobTemplate.spec.template.spec")
	}
	return nil, false
}

// protectedKey lists scalar keys perturbation must never touch: REST
// routing identity (kind, apiVersion, names, namespaces) and list-item
// identifiers the policy generalizes by name.
func protectedKey(key string) bool {
	switch key {
	case "kind", "apiVersion", "name", "namespace", "generateName":
		return true
	}
	return false
}

// protectedPath reports whether a dotted path crosses the resources or
// securityContext subtrees, which must reach the policy unchanged so the
// E5 and securityContext attacks stay blocked (see package doc).
func protectedPath(path string) bool {
	for _, seg := range strings.Split(path, ".") {
		if seg == "resources" || seg == "securityContext" {
			return true
		}
	}
	return false
}

// walkScalars visits every scalar leaf reachable through maps and lists,
// in deterministic (sorted-key) order. List items extend the path with
// no segment, matching the policy's indexless path model. The visitor
// may mutate parent[key] in place.
func walkScalars(v any, path string, visit func(parent map[string]any, key, path string, val any)) {
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			childPath := k
			if path != "" {
				childPath = path + "." + k
			}
			switch child := t[k].(type) {
			case map[string]any, []any:
				walkScalars(child, childPath, visit)
			default:
				visit(t, k, childPath, child)
			}
		}
	case []any:
		for _, item := range t {
			if m, ok := item.(map[string]any); ok {
				walkScalars(m, path, visit)
			}
		}
	}
}

// resample re-draws scalar value domains preserving their type: strings
// gain a deterministic suffix, ints shift by a small delta. Bools are
// never touched (flipping a lock value would change the security
// posture, not the value domain).
func resample(objs []object.Object, r *rng) {
	for _, o := range objs {
		walkScalars(map[string]any(o), "", func(parent map[string]any, key, path string, val any) {
			if protectedKey(key) || protectedPath(path) {
				return
			}
			if !r.pct(25) {
				return
			}
			switch t := val.(type) {
			case string:
				if t == "" {
					return
				}
				parent[key] = fmt.Sprintf("%s-s%d", t, r.intn(90)+10)
			case int:
				parent[key] = shiftInt(t, r)
			case int64:
				parent[key] = int64(shiftInt(int(t), r))
			case float64:
				parent[key] = float64(shiftInt(int(t), r))
			}
		})
	}
}

func shiftInt(v int, r *rng) int {
	d := 1 + r.intn(7)
	if v > 60000 {
		return v - d
	}
	return v + d
}

// subset drops optional scalar leaves, shrinking the consolidated field
// surface. It never removes protected keys or paths, never removes
// booleans (conditional-gate and lock fields), and never leaves an empty
// map behind (an empty map would consolidate to an empty standin the
// policy denies).
func subset(objs []object.Object, r *rng) {
	for _, o := range objs {
		type target struct {
			parent map[string]any
			key    string
		}
		var candidates []target
		walkScalars(map[string]any(o), "", func(parent map[string]any, key, path string, val any) {
			if protectedKey(key) || protectedPath(path) {
				return
			}
			if strings.HasPrefix(path, "metadata.") {
				return
			}
			if _, isBool := val.(bool); isBool {
				return
			}
			if len(parent) <= 1 {
				return
			}
			candidates = append(candidates, target{parent, key})
		})
		if len(candidates) == 0 {
			continue
		}
		drop := 1 + r.intn(min(3, len(candidates)))
		for k := 0; k < drop; k++ {
			t := candidates[r.intn(len(candidates))]
			if len(t.parent) > 1 {
				delete(t.parent, t.key)
			}
		}
	}
}

// superset adds benign fields: a corpus annotation on every object, and
// a termination grace period plus a synthetic env flag on pod specs.
func superset(objs []object.Object, r *rng) {
	for _, o := range objs {
		md, ok := object.GetMap(o, "metadata")
		if ok {
			ann, _ := md["annotations"].(map[string]any)
			if ann == nil {
				ann = map[string]any{}
				md["annotations"] = ann
			}
			ann["synth.kubefence.io/variant"] = fmt.Sprintf("v%d", r.intn(1000))
		}
		spec, ok := podSpec(o)
		if !ok {
			continue
		}
		if _, has := spec["terminationGracePeriodSeconds"]; !has {
			spec["terminationGracePeriodSeconds"] = 30 + r.intn(60)
		}
		if cs, ok := spec["containers"].([]any); ok && len(cs) > 0 {
			if c0, ok := cs[0].(map[string]any); ok {
				cur, _ := c0["env"].([]any)
				c0["env"] = append(cur, map[string]any{
					"name":  "KF_SYNTH_FLAG",
					"value": fmt.Sprintf("f%d", r.intn(1000)),
				})
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// rng is a splitmix64 stream. Each workload gets its own stream mixed
// from (seed, index), so the corpus is prefix-stable: generating 25 or
// 100 workloads from the same seed yields identical workloads 0-24.
type rng struct{ s uint64 }

func newRNG(seed int64, index int) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ (uint64(index)+1)*0xBF58476D1CE4E5B9}
	r.next()
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

func (r *rng) pct(p int) bool {
	return r.intn(100) < p
}
