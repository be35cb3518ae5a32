package registry

import (
	"fmt"
	"reflect"
	"strings"
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
	// rawEscapedAttackBody's image is an escaped string: the walk decodes
	// it where the image check reads it, and diagnoses the body.
	rawEscapedAttackBody = []byte(`{"kind":"Pod","metadata":{"name":"web"},"spec":{"hostNetwork":false,"containers":[{"name":"c","image":"evil.io\/nginx","resources":{"limits":{"cpu":"100m"}}}]}}`)
	// rawUndecidedAttackBody's image is an escaped string that decodes to
	// more than the walk's scratch holds: the walk cannot render it, so it
	// cannot judge the body.
	rawUndecidedAttackBody = []byte(`{"kind":"Pod","metadata":{"name":"web"},"spec":{"hostNetwork":false,"containers":[{"name":"c","image":"evil.io\/` +
		strings.Repeat("x", 300) + `","resources":{"limits":{"cpu":"100m"}}}]}}`)
)

// rawScanned is the enforcement point's raw order for a JSON body: scan
// it, then judge the scanned body.
func rawScanned(t *testing.T, reg *Registry, e *Entry, body []byte) ([]validator.Violation, bool) {
	t.Helper()
	meta, ok := compile.ScanRawMeta(body)
	if !ok {
		t.Fatalf("scan of %.64q failed", body)
	}
	return reg.ValidateRawScanned(e, body, meta)
}

func TestValidateRawFastPath(t *testing.T) {
	reg := New(Config{CacheSize: 16})
	e, err := reg.Register("web", Selector{}, rawTestPolicy(t))
	if err != nil {
		t.Fatal(err)
	}

	vs, decided := rawScanned(t, reg, e, rawBenignBody)
	if !decided || vs != nil {
		t.Fatalf("benign body: decided=%v vs=%v, want decided with nil violations", decided, vs)
	}
	if m := e.Metrics(); m.Requests != 1 || m.CacheHits != 0 {
		t.Fatalf("metrics after fast-pass allow: %+v", m)
	}
	// The allow decision was cached under the body tag: the identical
	// re-apply short-circuits before any tokenization.
	vs, decided = rawScanned(t, reg, e, rawBenignBody)
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

	// A violating body the walk cannot judge is left undecided: the caller
	// decodes and runs the diagnostic engine.
	vs, decided := rawScanned(t, reg, e, rawUndecidedAttackBody)
	if decided {
		t.Fatalf("undecidable attack body decided raw: vs=%v", vs)
	}
	if m := e.Metrics(); m.Requests != 0 {
		t.Fatalf("undecided raw pass must not count a request: %+v", m)
	}
	o, err := object.ParseJSON(rawUndecidedAttackBody)
	if err != nil {
		t.Fatal(err)
	}
	denial := reg.Validate(e, rawUndecidedAttackBody, o)
	if len(denial) == 0 {
		t.Fatal("undecidable attack body not denied by the decode path")
	}
	// The decode-path denial is now cached: the raw path returns the
	// exact violation list with no decode at all.
	vs, decided = rawScanned(t, reg, e, rawUndecidedAttackBody)
	if !decided || !reflect.DeepEqual(vs, denial) {
		t.Fatalf("cached denial: decided=%v\nvs:   %v\nwant: %v", decided, vs, denial)
	}
}

// TestValidateRawDiagnosesDenial: a violating body the walk can judge is
// decided raw with the decode path's exact list, counted once, and
// cached under the body tag like any other decision — a refused plain
// value, and an escaped one the walk decodes for the check.
func TestValidateRawDiagnosesDenial(t *testing.T) {
	for name, body := range map[string][]byte{"plain": rawAttackBody, "escaped image": rawEscapedAttackBody} {
		reg := New(Config{CacheSize: 16})
		e, err := reg.Register("web", Selector{}, rawTestPolicy(t))
		if err != nil {
			t.Fatal(err)
		}
		vs, decided := rawScanned(t, reg, e, body)
		if !decided || len(vs) == 0 {
			t.Fatalf("%s: decided=%v vs=%v, want a raw diagnosis", name, decided, vs)
		}
		o, err := object.ParseJSON(body)
		if err != nil {
			t.Fatal(err)
		}
		if want := capViolations(e.Program().Validate(o)); !reflect.DeepEqual(vs, want) {
			t.Fatalf("%s: raw diagnosis diverges from the decode path:\nraw:    %v\ndecode: %v", name, vs, want)
		}
		if m := e.Metrics(); m.Requests != 1 || m.CacheHits != 0 {
			t.Fatalf("%s: metrics after a raw diagnosis: %+v", name, m)
		}
		again, decided := rawScanned(t, reg, e, body)
		if !decided || !reflect.DeepEqual(again, vs) {
			t.Fatalf("%s: cached diagnosis: decided=%v vs=%v", name, decided, again)
		}
		if m := e.Metrics(); m.Requests != 2 || m.CacheHits != 1 {
			t.Fatalf("%s: metrics after the cached diagnosis: %+v", name, m)
		}
	}
}

// TestEveryListIsCapped: a list longer than MaxViolations is cut once,
// by the registry, wherever it leaves it — a raw diagnosis, a decoded
// one, a shadow verdict, a cached decision and the exported cache all
// hold the first MaxViolations and one "+N more violations" entry.
func TestEveryListIsCapped(t *testing.T) {
	// Every container's image is outside the policy's domain: one
	// violation each, and no mapping open at once holds more than a few
	// keys, so the walk diagnoses the body.
	container := `{"name":"c","image":"evil.io/x","resources":{"limits":{"cpu":"100m"}}}`
	containers := strings.Repeat(container+",", 2*MaxViolations) + container
	body := []byte(`{"kind":"Pod","metadata":{"name":"web"},"spec":{"hostNetwork":false,"containers":[` + containers + `]}}`)
	o, err := object.ParseJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	full := compile.MustCompile(rawTestPolicy(t)).Validate(o)
	want := capViolations(full)
	if len(full) <= MaxViolations || len(want) != MaxViolations+1 ||
		want[MaxViolations].Reason != fmt.Sprintf("+%d more violations", len(full)-MaxViolations) {
		t.Fatalf("%d violations cut to %d, last %+v", len(full), len(want), want[len(want)-1])
	}
	for _, raw := range []bool{true, false} {
		reg := New(Config{CacheSize: 16})
		e, err := reg.Register("web", Selector{}, rawTestPolicy(t))
		if err != nil {
			t.Fatal(err)
		}
		var vs []validator.Violation
		if raw {
			var decided bool
			if vs, decided = rawScanned(t, reg, e, body); !decided {
				t.Fatal("the raw walk left the body undecided")
			}
		} else {
			vs = reg.Validate(e, body, o)
		}
		cached := reg.Validate(e, body, o)
		snap, err := reg.ExportCache("web")
		if err != nil || len(snap.Entries) != 1 {
			t.Fatalf("raw %v: export = %d entries, %v", raw, len(snap.Entries), err)
		}
		for what, got := range map[string][]validator.Violation{"verdict": vs, "cached verdict": cached, "exported": snap.Entries[0].Violations} {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("raw %v: %s holds %d violations, want the %d of the cut list", raw, what, len(got), len(want))
			}
		}
	}
	reg := New(Config{})
	e, err := reg.Register("web", Selector{}, rawTestPolicy(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SetMode("web", ModeShadow); err != nil {
		t.Fatal(err)
	}
	if shadow := reg.Validate(e, body, o); !reflect.DeepEqual(shadow, want) {
		t.Errorf("shadow verdict holds %d violations, want the %d of the cut list", len(shadow), len(want))
	}
}

func TestValidateRawNoCache(t *testing.T) {
	reg := New(Config{})
	e, err := reg.Register("web", Selector{}, rawTestPolicy(t))
	if err != nil {
		t.Fatal(err)
	}
	vs, decided := rawScanned(t, reg, e, rawBenignBody)
	if !decided || vs != nil {
		t.Fatalf("cacheless fast pass: decided=%v vs=%v", decided, vs)
	}
	if _, decided := rawScanned(t, reg, e, rawUndecidedAttackBody); decided {
		t.Fatal("cacheless undecidable attack body decided raw")
	}
	if vs, decided := rawScanned(t, reg, e, rawAttackBody); !decided || len(vs) == 0 {
		t.Fatalf("cacheless attack body: decided=%v vs=%v, want a raw diagnosis", decided, vs)
	}
}

func TestValidateRawLearningEntryFailsClosed(t *testing.T) {
	reg := New(Config{CacheSize: 16})
	e, err := reg.RegisterLearning("learner", Selector{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vs, decided := rawScanned(t, reg, e, rawBenignBody)
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

// The tag-carrying forms and the forms that tag for themselves are one
// code path over one cache: a decision either kind caches, the other
// kind finds, for allows, denials and shadow verdicts alike.
func TestHashedFormsShareTheDecisionCache(t *testing.T) {
	reg := New(Config{CacheSize: 16})
	e, err := reg.Register("web", Selector{}, rawTestPolicy(t))
	if err != nil {
		t.Fatal(err)
	}
	hits := func() uint64 { return e.Metrics().CacheHits }

	benignTag := BodyTag(rawBenignBody)
	meta, ok := compile.ScanRawMeta(rawBenignBody)
	if !ok {
		t.Fatal("scan of the benign body failed")
	}
	if vs, decided := reg.ValidateRawHashed(e, ModeEnforce, rawBenignBody, &benignTag, meta, false); !decided || vs != nil {
		t.Fatalf("hashed raw pass: decided=%v vs=%v", decided, vs)
	}
	if vs, decided := reg.ValidateRawScanned(e, rawBenignBody, meta); !decided || vs != nil || hits() != 1 {
		t.Fatalf("self-hashing raw pass after the hashed one: decided=%v vs=%v hits=%d", decided, vs, hits())
	}

	attack, err := object.ParseJSON(rawAttackBody)
	if err != nil {
		t.Fatal(err)
	}
	attackTag := BodyTag(rawAttackBody)
	denied := reg.Validate(e, rawAttackBody, attack)
	if len(denied) == 0 {
		t.Fatal("attack body validated clean")
	}
	if vs := reg.ValidateHashed(e, ModeEnforce, rawAttackBody, &attackTag, attack); !reflect.DeepEqual(vs, denied) || hits() != 2 {
		t.Fatalf("hashed validate after the self-hashing one: vs=%v hits=%d", vs, hits())
	}
	if vs := reg.ValidateHashed(e, ModeShadow, rawAttackBody, &attackTag, attack); !reflect.DeepEqual(vs, denied) || hits() != 3 {
		t.Fatalf("hashed shadow validate: vs=%v hits=%d", vs, hits())
	}
	if vs, decided := reg.ValidateRawHashed(e, ModeEnforce, rawAttackBody, &attackTag, meta, false); !decided || !reflect.DeepEqual(vs, denied) || hits() != 4 {
		t.Fatalf("hashed raw pass on a cached denial: decided=%v vs=%v hits=%d", decided, vs, hits())
	}
}
