package registry

import (
	"crypto/sha256"
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/object"
	"repro/internal/validator"
)

func rawTestPolicy(t *testing.T) *validator.Validator {
	t.Helper()
	manifest := object.Object{
		"apiVersion": "v1",
		"kind":       "Pod",
		"metadata":   map[string]any{"name": "web"},
		"spec": map[string]any{
			"hostNetwork": false,
			"containers": []any{map[string]any{
				"name":  "c",
				"image": "docker.io/library/nginx:1.25",
				"resources": map[string]any{
					"limits": map[string]any{"cpu": "100m"},
				},
			}},
		},
	}
	pol, err := validator.Build([]object.Object{manifest}, validator.BuildOptions{Workload: "web"})
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

var (
	rawBenignBody = []byte(`{"kind":"Pod","metadata":{"name":"web"},"spec":{"hostNetwork":false,"containers":[{"name":"c","image":"docker.io/library/nginx:1.25","resources":{"limits":{"cpu":"100m"}}}]}}`)
	rawAttackBody = []byte(`{"kind":"Pod","metadata":{"name":"web"},"spec":{"hostNetwork":true,"containers":[{"name":"c","image":"docker.io/library/nginx:1.25","resources":{"limits":{"cpu":"100m"}}}]}}`)
)

func TestValidateRawFastPath(t *testing.T) {
	reg := New(Config{CacheSize: 16})
	e, err := reg.Register("web", Selector{}, rawTestPolicy(t))
	if err != nil {
		t.Fatal(err)
	}

	vs, decided := reg.ValidateRaw(e, rawBenignBody)
	if !decided || vs != nil {
		t.Fatalf("benign body: decided=%v vs=%v, want decided with nil violations", decided, vs)
	}
	if m := e.Metrics(); m.Requests != 1 || m.CacheHits != 0 {
		t.Fatalf("metrics after fast-pass allow: %+v", m)
	}
	// The allow decision was cached under the body hash: the identical
	// re-apply short-circuits before any tokenization.
	vs, decided = reg.ValidateRaw(e, rawBenignBody)
	if !decided || vs != nil {
		t.Fatalf("cached benign body: decided=%v vs=%v", decided, vs)
	}
	if m := e.Metrics(); m.Requests != 2 || m.CacheHits != 1 {
		t.Fatalf("metrics after cache hit: %+v", m)
	}
}

func TestValidateRawFallbackAndCachedDenial(t *testing.T) {
	reg := New(Config{CacheSize: 16})
	e, err := reg.Register("web", Selector{}, rawTestPolicy(t))
	if err != nil {
		t.Fatal(err)
	}

	// A violating body is never decided raw: the caller decodes and runs
	// the diagnostic engine.
	vs, decided := reg.ValidateRaw(e, rawAttackBody)
	if decided {
		t.Fatalf("attack body decided raw: vs=%v", vs)
	}
	if m := e.Metrics(); m.Requests != 0 {
		t.Fatalf("undecided raw pass must not count a request: %+v", m)
	}
	o, err := object.ParseJSON(rawAttackBody)
	if err != nil {
		t.Fatal(err)
	}
	denial := reg.Validate(e, rawAttackBody, o)
	if len(denial) == 0 {
		t.Fatal("attack body not denied by the decode path")
	}
	// The decode-path denial is now cached: the raw path returns the
	// exact violation list with no decode at all.
	vs, decided = reg.ValidateRaw(e, rawAttackBody)
	if !decided || !reflect.DeepEqual(vs, denial) {
		t.Fatalf("cached denial: decided=%v\nvs:   %v\nwant: %v", decided, vs, denial)
	}
}

func TestValidateRawInterpretedSkipsStreaming(t *testing.T) {
	reg := New(Config{CacheSize: 16, Interpreted: true})
	e, err := reg.Register("web", Selector{}, rawTestPolicy(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, decided := reg.ValidateRaw(e, rawBenignBody); decided {
		t.Fatal("interpreted entry decided a fresh body raw")
	}
	o, err := object.ParseJSON(rawBenignBody)
	if err != nil {
		t.Fatal(err)
	}
	if vs := reg.Validate(e, rawBenignBody, o); len(vs) != 0 {
		t.Fatalf("benign body denied: %v", vs)
	}
	// Cache short-circuit still applies to interpreted entries.
	vs, decided := reg.ValidateRaw(e, rawBenignBody)
	if !decided || vs != nil {
		t.Fatalf("interpreted cache hit: decided=%v vs=%v", decided, vs)
	}
}

func TestValidateRawNoCache(t *testing.T) {
	reg := New(Config{})
	e, err := reg.Register("web", Selector{}, rawTestPolicy(t))
	if err != nil {
		t.Fatal(err)
	}
	vs, decided := reg.ValidateRaw(e, rawBenignBody)
	if !decided || vs != nil {
		t.Fatalf("cacheless fast pass: decided=%v vs=%v", decided, vs)
	}
	if _, decided := reg.ValidateRaw(e, rawAttackBody); decided {
		t.Fatal("cacheless attack body decided raw")
	}
}

func TestValidateRawLearningEntryFailsClosed(t *testing.T) {
	reg := New(Config{CacheSize: 16})
	e, err := reg.RegisterLearning("learner", Selector{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vs, decided := reg.ValidateRaw(e, rawBenignBody)
	if !decided || len(vs) == 0 {
		t.Fatalf("no-policy entry must fail closed raw: decided=%v vs=%v", decided, vs)
	}
	// Identical to the decode path's fail-closed verdict.
	o, err := object.ParseJSON(rawBenignBody)
	if err != nil {
		t.Fatal(err)
	}
	if want := reg.Validate(e, nil, o); !reflect.DeepEqual(vs, want) {
		t.Fatalf("fail-closed verdicts differ:\nraw:    %v\ndecode: %v", vs, want)
	}
}

// The sum-carrying forms and the forms that hash for themselves are one
// code path over one cache: a decision either kind caches, the other
// kind finds, for allows, denials and shadow verdicts alike.
func TestHashedFormsShareTheDecisionCache(t *testing.T) {
	reg := New(Config{CacheSize: 16})
	e, err := reg.Register("web", Selector{}, rawTestPolicy(t))
	if err != nil {
		t.Fatal(err)
	}
	hits := func() uint64 { return e.Metrics().CacheHits }

	benignSum := sha256.Sum256(rawBenignBody)
	meta, ok := compile.ScanRawMeta(rawBenignBody)
	if !ok {
		t.Fatal("scan of the benign body failed")
	}
	if vs, decided := reg.ValidateRawHashed(e, rawBenignBody, &benignSum, meta, false); !decided || vs != nil {
		t.Fatalf("hashed raw pass: decided=%v vs=%v", decided, vs)
	}
	if vs, decided := reg.ValidateRawScanned(e, rawBenignBody, meta); !decided || vs != nil || hits() != 1 {
		t.Fatalf("self-hashing raw pass after the hashed one: decided=%v vs=%v hits=%d", decided, vs, hits())
	}

	attack, err := object.ParseJSON(rawAttackBody)
	if err != nil {
		t.Fatal(err)
	}
	attackSum := sha256.Sum256(rawAttackBody)
	denied := reg.Validate(e, rawAttackBody, attack)
	if len(denied) == 0 {
		t.Fatal("attack body validated clean")
	}
	if vs := reg.ValidateHashed(e, rawAttackBody, &attackSum, attack); !reflect.DeepEqual(vs, denied) || hits() != 2 {
		t.Fatalf("hashed validate after the self-hashing one: vs=%v hits=%d", vs, hits())
	}
	if vs, _ := reg.ShadowValidateHashed(e, rawAttackBody, &attackSum, attack); !reflect.DeepEqual(vs, denied) || hits() != 3 {
		t.Fatalf("hashed shadow validate: vs=%v hits=%d", vs, hits())
	}
	if vs, decided := reg.ValidateRawHashed(e, rawAttackBody, &attackSum, meta, false); !decided || !reflect.DeepEqual(vs, denied) || hits() != 4 {
		t.Fatalf("hashed raw pass on a cached denial: decided=%v vs=%v hits=%d", decided, vs, hits())
	}
}
