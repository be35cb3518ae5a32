package compile

import (
	"fmt"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/mutate"
	"repro/internal/object"
	"repro/internal/schema"
	"repro/internal/validator"
)

// both runs an object through the interpreted and compiled engines and
// fails unless verdicts AND violation lists are identical.
func both(t *testing.T, v *validator.Validator, o object.Object) []validator.Violation {
	t.Helper()
	p, err := Compile(v)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want := v.Validate(o)
	got := p.Validate(o)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("engines diverge on %v:\ninterpreted: %#v\ncompiled:    %#v", o, want, got)
	}
	return got
}

// build consolidates manifests with the given options, failing the test
// on error.
func build(t *testing.T, opts validator.BuildOptions, objs ...object.Object) *validator.Validator {
	t.Helper()
	v, err := validator.Build(objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func pod(spec map[string]any) object.Object {
	return object.Object{
		"apiVersion": "v1",
		"kind":       "Pod",
		"metadata":   map[string]any{"name": "p", "namespace": "default"},
		"spec":       spec,
	}
}

func TestCompiledMatchesInterpretedOnScalarDomains(t *testing.T) {
	v := build(t, validator.BuildOptions{Workload: "w"}, pod(map[string]any{
		"restartPolicy":                 "Always",
		"priority":                      int64(3),
		"terminationGracePeriodSeconds": "__KF_INT__",
		"schedulerName":                 "sched-__KF_STRING__",
	}))
	for _, tc := range []any{
		"Always", "Never", int64(3), 3.0, int64(4), true, nil,
		[]any{"Always"}, map[string]any{"x": "y"},
	} {
		o := pod(map[string]any{"restartPolicy": tc})
		both(t, v, o)
	}
	// Type token, pattern, and enumeration alternatives.
	for field, vals := range map[string][]any{
		"priority":                      {int64(3), int64(9), "3", "x", 3.5},
		"terminationGracePeriodSeconds": {int64(30), "-4", "4.2", "x"},
		"schedulerName":                 {"sched-a", "schedx", "sched-", 7},
	} {
		for _, val := range vals {
			both(t, v, pod(map[string]any{field: val}))
		}
	}
}

func TestMatcherSpecializations(t *testing.T) {
	// exact: single string constant; set: string enumeration; type:
	// bare token; generic: mixed domains.
	v := build(t, validator.BuildOptions{Workload: "w"},
		pod(map[string]any{"a": "one", "b": "x", "c": "__KF_STRING__", "d": "v", "e": int64(1)}),
		pod(map[string]any{"a": "one", "b": "y", "c": "__KF_STRING__", "d": int64(2), "e": int64(1)}),
	)
	p := MustCompile(v)
	kinds := map[scalarKind]bool{}
	for _, sc := range p.scalars {
		kinds[sc.kind] = true
	}
	for _, want := range []scalarKind{scalarExact, scalarSet, scalarType, scalarGeneric} {
		if !kinds[want] {
			t.Errorf("no scalar compiled to specialization %d; got %v", want, kinds)
		}
	}
	for _, spec := range []map[string]any{
		{"a": "one"}, {"a": "two"}, {"a": int64(1)},
		{"b": "x"}, {"b": "z"}, {"b": true},
		{"c": "anything"}, {"c": int64(9)},
		{"d": "v"}, {"d": int64(2)}, {"d": 2.0}, {"d": "w"},
	} {
		both(t, v, pod(spec))
	}
}

func TestServerOwnedFieldScrub(t *testing.T) {
	v := build(t, validator.BuildOptions{Workload: "w"}, pod(map[string]any{"x": "y"}))
	o := pod(map[string]any{"x": "y"})
	o["status"] = map[string]any{"phase": "Running"}
	o["metadata"] = map[string]any{
		"name": "p", "namespace": "default",
		"resourceVersion": "42", "uid": "u-1", "generation": int64(3),
		"creationTimestamp": "now", "managedFields": []any{}, "selfLink": "/x",
	}
	if vs := both(t, v, o); len(vs) != 0 {
		t.Fatalf("server-owned fields should be invisible, got %v", vs)
	}
	// A smuggled *client* field among the scrubbed ones is still caught.
	o["metadata"].(map[string]any)["ownerReferences"] = []any{}
	if vs := both(t, v, o); len(vs) == 0 {
		t.Fatal("unknown metadata field escaped the policy")
	}
}

func TestRequiredBitsetsResolveLockMode(t *testing.T) {
	manifest := pod(map[string]any{
		"containers": []any{map[string]any{
			"name":  "c",
			"image": "img",
			"resources": map[string]any{
				"limits": map[string]any{"cpu": "1"},
			},
			"securityContext": map[string]any{"runAsNonRoot": true},
		}},
	})
	attack := pod(map[string]any{
		"containers": []any{map[string]any{
			"name":  "c",
			"image": "img",
		}},
	})
	emptyLimits := pod(map[string]any{
		"containers": []any{map[string]any{
			"name":  "c",
			"image": "img",
			"resources": map[string]any{
				"limits": map[string]any{},
			},
			"securityContext": map[string]any{"runAsNonRoot": true},
		}},
	})
	for _, mode := range []validator.LockMode{validator.LockIfPresent, validator.LockRequired} {
		v := build(t, validator.BuildOptions{Workload: "w", Mode: mode}, manifest)
		if vs := both(t, v, manifest); len(vs) != 0 {
			t.Fatalf("mode %d: legit manifest denied: %v", mode, vs)
		}
		// E5: deleting resources (or leaving limits empty) must be
		// denied in every mode; omitting the locked runAsNonRoot is only
		// denied under LockRequired. both() already asserts engine
		// equality; here we pin the expected verdicts too.
		if vs := both(t, v, attack); len(vs) == 0 {
			t.Fatalf("mode %d: absent resource limits allowed", mode)
		}
		if vs := both(t, v, emptyLimits); len(vs) == 0 {
			t.Fatalf("mode %d: empty {} limits stand-in allowed", mode)
		}
	}
}

func TestDenyNodesAndUnknownKinds(t *testing.T) {
	// Nil kind root and nil list item deny with the interpreted
	// engine's exact violation; unknown node kinds allow.
	v := &validator.Validator{
		Workload: "w",
		Kinds: map[string]*validator.Node{
			"NilRoot":  nil,
			"NilItem":  {Kind: validator.KindMap, Fields: map[string]*validator.Node{"l": {Kind: validator.KindList}}},
			"Unknown":  {Kind: validator.NodeKind(99)},
			"Anything": {Kind: validator.KindAny},
		},
		Mode: validator.LockIfPresent,
	}
	for _, o := range []object.Object{
		{"kind": "NilRoot", "x": "y"},
		{"kind": "NilItem", "l": []any{"a", "b"}},
		{"kind": "NilItem", "l": "not-a-list"},
		{"kind": "Unknown", "anything": map[string]any{"goes": true}},
		{"kind": "Anything", "free": "form"},
		{"kind": "Absent"},
		{},
	} {
		both(t, v, o)
	}
}

func TestAPIVersionGate(t *testing.T) {
	v := build(t, validator.BuildOptions{Workload: "w"}, pod(map[string]any{"x": "y"}))
	o := pod(map[string]any{"x": "y"})
	o["apiVersion"] = "v2"
	vs := both(t, v, o)
	if len(vs) != 1 || vs[0].Path != "apiVersion" {
		t.Fatalf("want one apiVersion violation, got %v", vs)
	}
}

func TestAPIVersionExplicitFalseDenies(t *testing.T) {
	// An explicit-false APIVersions entry must deny in BOTH engines;
	// copying only map keys would silently turn it into an allow.
	v := &validator.Validator{
		Workload: "w",
		Kinds:    map[string]*validator.Node{"Pod": {Kind: validator.KindAny}},
		APIVersions: map[string]map[string]bool{
			"Pod": {"v1": true, "v2": false},
		},
		Mode: validator.LockIfPresent,
	}
	for av, wantDeny := range map[string]bool{"v1": false, "v2": true, "v3": true} {
		vs := both(t, v, object.Object{"kind": "Pod", "apiVersion": av})
		if (len(vs) > 0) != wantDeny {
			t.Errorf("apiVersion %s: denied=%v, want %v", av, len(vs) > 0, wantDeny)
		}
	}
}

func TestCompileRejectsNilMapChild(t *testing.T) {
	v := &validator.Validator{
		Workload: "w",
		Kinds: map[string]*validator.Node{
			"Pod": {Kind: validator.KindMap, Fields: map[string]*validator.Node{"bad": nil}},
		},
		Mode: validator.LockIfPresent,
	}
	if _, err := Compile(v); err == nil {
		t.Fatal("nil map child must fail compilation (it panics the tree walk)")
	}
}

func TestCompileRejectsCyclicPolicy(t *testing.T) {
	n := &validator.Node{Kind: validator.KindMap, Fields: map[string]*validator.Node{}}
	n.Fields["loop"] = n
	v := &validator.Validator{
		Workload: "w",
		Kinds:    map[string]*validator.Node{"Pod": n},
		Mode:     validator.LockIfPresent,
	}
	if _, err := Compile(v); err == nil {
		t.Fatal("cyclic policy graph must fail compilation")
	}
}

func TestPathInterning(t *testing.T) {
	// The same dotted path under two kinds must intern to one string.
	v := build(t, validator.BuildOptions{Workload: "w"},
		pod(map[string]any{"x": "y"}),
		object.Object{
			"apiVersion": "v1",
			"kind":       "Service",
			"metadata":   map[string]any{"name": "s", "namespace": "default"},
			"spec":       map[string]any{"x": "y"},
		},
	)
	p := MustCompile(v)
	seen := map[string]int{}
	for _, path := range p.paths {
		seen[path]++
		if seen[path] > 1 {
			t.Fatalf("path %q interned twice", path)
		}
	}
	if len(p.kinds) != 2 {
		t.Fatalf("compiled %d kinds, want 2", len(p.kinds))
	}
}

func TestLockedScalarEquivalence(t *testing.T) {
	v := build(t, validator.BuildOptions{Workload: "w"}, pod(map[string]any{
		"hostNetwork": false,
		"containers": []any{map[string]any{
			"name":            "c",
			"image":           "img",
			"securityContext": map[string]any{"privileged": false},
		}},
	}))
	for _, hn := range []any{false, true, "false", nil, int64(0)} {
		both(t, v, pod(map[string]any{"hostNetwork": hn}))
	}
}

func TestValidateAllocsOnAllowedRequest(t *testing.T) {
	v := build(t, validator.BuildOptions{Workload: "w"}, pod(map[string]any{
		"containers": []any{map[string]any{
			"name":      "c",
			"image":     "reg.example/app:__KF_STRING__",
			"resources": map[string]any{"limits": map[string]any{"cpu": "1"}},
		}},
		"restartPolicy": "Always",
	}))
	p := MustCompile(v)
	o := pod(map[string]any{
		"containers": []any{map[string]any{
			"name":      "c",
			"image":     "reg.example/app:v1.2.3",
			"resources": map[string]any{"limits": map[string]any{"cpu": "1"}},
		}},
		"restartPolicy": "Always",
	})
	if vs := p.Validate(o); len(vs) != 0 {
		t.Fatalf("probe denied: %v", vs)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if vs := p.Validate(o); vs != nil {
			t.Fatal("denied inside alloc probe")
		}
	})
	// The walk itself is allocation-free on an allowed request; regexp
	// matching against the image pattern is permitted a tiny constant.
	if allocs > 2 {
		t.Errorf("compiled validate allocates %.1f objects/op on the allow path, want <= 2", allocs)
	}
}

// mapOrderPolicy and mapOrderAttack are a Pod policy with required
// children under a container's resources, and a Pod whose root,
// metadata, spec and container each carry three or more violating
// members, with one required field missing and one filled empty.
func mapOrderPolicy(t testing.TB) *validator.Validator {
	v, err := validator.Build([]object.Object{pod(map[string]any{
		"hostNetwork": false,
		"containers": []any{map[string]any{
			"name":  "c",
			"image": "reg.example/app:v1",
			"resources": map[string]any{
				"limits":   map[string]any{"cpu": "1"},
				"requests": map[string]any{"cpu": "1"},
			},
			"securityContext": map[string]any{"runAsNonRoot": true},
		}},
	})}, validator.BuildOptions{Workload: "w",
		RequiredPaths: []string{"containers.resources.limits", "containers.resources.requests"}})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mapOrderAttack() object.Object {
	o := pod(map[string]any{
		"hostNetwork": true,
		"hostPID":     true,
		"aUnknown":    "x",
		"zUnknown":    "y",
		"containers": []any{map[string]any{
			"name":    "c",
			"image":   "evil.io/app:v1",
			"command": []any{"sh"},
			"args":    []any{"-c"},
			"resources": map[string]any{
				"limits": map[string]any{},
				"extra":  "z",
			},
			"securityContext": map[string]any{"runAsNonRoot": false, "privileged": true},
		}},
	})
	o["aRoot"], o["zRoot"] = int64(1), int64(2)
	o["metadata"] = map[string]any{"name": "p", "namespace": "default",
		"aMeta": "x", "finalizers": []any{"f"}, "zMeta": "z"}
	return o
}

// TestValidateIsMapOrderIndependent: the decoded walk visits a mapping's
// members in Go's map order, which changes from one walk to the next,
// and its close puts them in sorted key order. Sixty-four walks of one
// object with several violating members at every level, and a missing
// and an empty required field, must each give the interpreted engine's
// list.
func TestValidateIsMapOrderIndependent(t *testing.T) {
	v := mapOrderPolicy(t)
	p := MustCompile(v)
	o := mapOrderAttack()
	want := v.Validate(o)
	reasons := map[string]bool{}
	for _, vi := range want {
		reasons[vi.Reason] = true
	}
	if len(want) < 15 || !reasons["security-critical field must be present"] || !reasons["security-critical field must not be empty"] {
		t.Fatalf("the probe misses what it is for: %v", want)
	}
	for i := 0; i < 64; i++ {
		if got := p.Validate(o); !reflect.DeepEqual(got, want) {
			t.Fatalf("walk %d diverges from the interpreted engine:\ninterpreted: %v\ncompiled:    %v", i, want, got)
		}
	}
}

// TestValidateAllocsOnDeniedRequest: a denial costs its violation list
// and little else — no key slice per mapping, no second walk. Averaged
// over the robustness matrix's denials.
func TestValidateAllocsOnDeniedRequest(t *testing.T) {
	cs, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	type denial struct {
		p *Program
		o object.Object
	}
	var denials []denial
	for _, c := range cs {
		scs, err := mutate.ForCatalog(c.benign, mutate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			if len(c.program.Validate(sc.Object)) > 0 {
				denials = append(denials, denial{c.program, sc.Object})
			}
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, d := range denials {
			if len(d.p.Validate(d.o)) == 0 {
				t.Fatal("verdict changed inside the alloc probe")
			}
		}
	}) / float64(len(denials))
	// The list, the member segments and a sort's scratch where a mapping
	// met violations in more than one member.
	if allocs > 8 {
		t.Errorf("compiled validate allocates %.1f objects/op over %d denials, want <= 8", allocs, len(denials))
	}
	t.Logf("%.2f allocs per denial over %d denials", allocs, len(denials))
}

func TestRequiredOverflowFallback(t *testing.T) {
	// More than 64 required children forces the direct-lookup fallback.
	fields := map[string]*validator.Node{}
	o := object.Object{"kind": "Wide"}
	for i := 0; i < 70; i++ {
		name := fmt.Sprintf("f%02d", i)
		fields[name] = &validator.Node{
			Kind: validator.KindScalar, Type: schema.TokString, Required: true,
		}
		o[name] = "v"
	}
	v := &validator.Validator{
		Workload: "w",
		Kinds:    map[string]*validator.Node{"Wide": {Kind: validator.KindMap, Fields: fields}},
		Mode:     validator.LockIfPresent,
	}
	if vs := both(t, v, o); len(vs) != 0 {
		t.Fatalf("complete wide object denied: %v", vs)
	}
	missing := object.Object{"kind": "Wide"}
	for k, val := range o {
		if k != "f33" {
			missing[k] = val
		}
	}
	if vs := both(t, v, missing); len(vs) != 1 {
		t.Fatalf("want exactly the missing-f33 violation, got %v", vs)
	}
}

// reachableTypes walks a type graph through struct fields, pointers,
// arrays, slices, maps and channels, and reports every type it reaches.
// Interface-typed values are opaque to it.
func reachableTypes(root reflect.Type) map[reflect.Type]bool {
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t.Kind() {
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				walk(t.Field(i).Type)
			}
		case reflect.Map:
			walk(t.Key())
			walk(t.Elem())
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(t.Elem())
		}
	}
	walk(root)
	return seen
}

// TestProgramHoldsNoValidatorTree: the compiled program is the only
// form of a policy the serving side keeps, so nothing in its type graph
// may reach the interpreted tree it was lowered from.
func TestProgramHoldsNoValidatorTree(t *testing.T) {
	tree := []reflect.Type{reflect.TypeOf(validator.Validator{}), reflect.TypeOf(validator.Node{})}
	// The walk must see through a field to the tree, or its silence on
	// Program proves nothing.
	type holder struct{ kinds map[string][]*validator.Node }
	if !reachableTypes(reflect.TypeOf(holder{}))[tree[1]] {
		t.Fatal("the type walk does not reach a Node held through a map of slices")
	}
	got := reachableTypes(reflect.TypeOf(Program{}))
	if !got[reflect.TypeOf(regexp.Regexp{})] {
		t.Fatal("the type walk did not reach the program's compiled patterns")
	}
	for _, typ := range tree {
		if got[typ] {
			t.Errorf("compile.Program reaches %v", typ)
		}
	}
}
