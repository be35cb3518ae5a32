package invariant

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/mutate"
	"repro/internal/object"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/replay"
)

// nullTransport completes every forwarded round trip in memory, so the
// replay exercises only the enforcement path.
type nullTransport struct{}

func (nullTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"kind":"Status","status":"Success"}`)),
	}, nil
}

// storeFixture renders the multi-service scenario and generates its
// schema policy and derived secret-ownership rule.
func storeFixture(t *testing.T) (objs []object.Object, pol *core.Result, rule *SecretOwnership) {
	t.Helper()
	c := charts.MustLoad("store")
	files, err := c.Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: "store"})
	if err != nil {
		t.Fatal(err)
	}
	objs = chart.Objects(files)
	pol, err = core.GeneratePolicy(c, core.Options{Namespace: "store"})
	if err != nil {
		t.Fatal(err)
	}
	rule = OwnershipFromObjects(objs, "")
	return objs, pol, rule
}

// findByName returns the rendered object of a kind whose name has the
// given suffix.
func findByName(t *testing.T, objs []object.Object, kind, suffix string) object.Object {
	t.Helper()
	for _, o := range objs {
		if o.Kind() == kind && len(o.Name()) >= len(suffix) &&
			o.Name()[len(o.Name())-len(suffix):] == suffix {
			return o
		}
	}
	t.Fatalf("no %s named *%s", kind, suffix)
	return nil
}

// violatingAdmissions derives cross-mount attacks from the benign
// manifests: each one points a pod's secret consumption at a secret
// owned by another component, through a different consumption channel.
func violatingAdmissions(t *testing.T, objs []object.Object) []object.Object {
	t.Helper()
	api := findByName(t, objs, "Deployment", "-api")
	proc := findByName(t, objs, "Deployment", "-processor")
	db := findByName(t, objs, "StatefulSet", "-db")
	apiSecret := findByName(t, objs, "Secret", "-api-credentials").Name()
	dbSecret := findByName(t, objs, "Secret", "-db-credentials").Name()

	// The DB pod mounts the API's credentials as a volume.
	dbMountsAPI := db.DeepCopy()
	_ = object.Set(dbMountsAPI, "metadata.name", db.Name()+"-inv1")
	vols, _ := object.GetMap(dbMountsAPI, "spec.template.spec")
	for _, v := range vols["volumes"].([]any) {
		vol := v.(map[string]any)
		if sec, ok := vol["secret"].(map[string]any); ok {
			sec["secretName"] = apiSecret
		}
	}

	// The API pod reads the DB password via an env secretKeyRef.
	apiReadsDB := api.DeepCopy()
	_ = object.Set(apiReadsDB, "metadata.name", api.Name()+"-inv2")
	spec, _ := object.GetMap(apiReadsDB, "spec.template.spec")
	c0 := spec["containers"].([]any)[0].(map[string]any)
	for _, e := range c0["env"].([]any) {
		em := e.(map[string]any)
		if vf, ok := em["valueFrom"].(map[string]any); ok {
			vf["secretKeyRef"].(map[string]any)["name"] = dbSecret
		}
	}

	// The processor bulk-imports the API's credentials via envFrom.
	procReadsAPI := proc.DeepCopy()
	_ = object.Set(procReadsAPI, "metadata.name", proc.Name()+"-inv3")
	pspec, _ := object.GetMap(procReadsAPI, "spec.template.spec")
	pc0 := pspec["containers"].([]any)[0].(map[string]any)
	for _, e := range pc0["envFrom"].([]any) {
		em := e.(map[string]any)
		if ref, ok := em["secretRef"].(map[string]any); ok {
			ref["name"] = apiSecret
		}
	}

	return []object.Object{dbMountsAPI, apiReadsDB, procReadsAPI}
}

// TestSecretOwnershipCheck unit-tests the rule against every consumption
// channel: own-component references are clean, cross-component ones are
// violations, unlisted secrets and pod-less kinds are out of scope.
func TestSecretOwnershipCheck(t *testing.T) {
	objs, _, rule := storeFixture(t)
	if len(rule.Owners) != 3 {
		t.Fatalf("derived %d owned secrets, want 3: %v", len(rule.Owners), rule.OwnedSecrets())
	}

	// Every benign object is clean, including the Secrets themselves.
	for _, o := range objs {
		if vs := rule.Check(o); len(vs) != 0 {
			t.Errorf("benign %s/%s violates the rule: %v", o.Kind(), o.Name(), vs)
		}
	}

	// Every derived cross-mount is caught.
	for _, o := range violatingAdmissions(t, objs) {
		if vs := rule.Check(o); len(vs) == 0 {
			t.Errorf("cross-mount %s/%s not caught", o.Kind(), o.Name())
		}
	}

	// Unlisted secrets are unconstrained.
	db := findByName(t, objs, "StatefulSet", "-db").DeepCopy()
	spec, _ := object.GetMap(db, "spec.template.spec")
	for _, v := range spec["volumes"].([]any) {
		vol := v.(map[string]any)
		if sec, ok := vol["secret"].(map[string]any); ok {
			sec["secretName"] = "some-unrelated-secret"
		}
	}
	if vs := rule.Check(db); len(vs) != 0 {
		t.Errorf("unlisted secret flagged: %v", vs)
	}

	// A projected volume source is also a consumption channel.
	apiSecret := findByName(t, objs, "Secret", "-api-credentials").Name()
	db2 := findByName(t, objs, "StatefulSet", "-db").DeepCopy()
	spec2, _ := object.GetMap(db2, "spec.template.spec")
	spec2["volumes"] = []any{map[string]any{
		"name": "proj",
		"projected": map[string]any{"sources": []any{
			map[string]any{"secret": map[string]any{"name": apiSecret}},
		}},
	}}
	if vs := rule.Check(db2); len(vs) == 0 {
		t.Error("projected cross-component source not caught")
	}
}

// TestSecretOwnershipEdges covers the rule's identity and fallback
// behavior: default and custom rule names, the sorted owned-secret
// listing, non-pod objects passing through, and an unlabeled pod being
// denied access to any constrained secret.
func TestSecretOwnershipEdges(t *testing.T) {
	objs, _, rule := storeFixture(t)
	if rule.Name() != "secret-ownership" {
		t.Errorf("default rule name = %q", rule.Name())
	}
	named := &SecretOwnership{RuleName: "custom", Owners: rule.Owners}
	if named.Name() != "custom" {
		t.Errorf("custom rule name = %q", named.Name())
	}
	owned := rule.OwnedSecrets()
	if len(owned) != 3 {
		t.Fatalf("OwnedSecrets = %v", owned)
	}
	for i := 1; i < len(owned); i++ {
		if owned[i-1] >= owned[i] {
			t.Errorf("OwnedSecrets not sorted: %v", owned)
		}
	}

	// A pod template with no component label may not consume any
	// constrained secret: ownership cannot be verified, so it fails
	// closed.
	db := findByName(t, objs, "StatefulSet", "-db").DeepCopy()
	labels, _ := object.GetMap(db, "spec.template.metadata.labels")
	delete(labels, DefaultComponentLabel)
	// The rule falls back to the object's own labels for bare Pods and
	// unlabeled templates; strip those too to make it truly unlabeled.
	if own, ok := object.GetMap(db, "metadata.labels"); ok {
		delete(own, DefaultComponentLabel)
	}
	apiSecret := findByName(t, objs, "Secret", "-api-credentials").Name()
	spec, _ := object.GetMap(db, "spec.template.spec")
	spec["volumes"] = []any{map[string]any{
		"name":   "v",
		"secret": map[string]any{"secretName": apiSecret},
	}}
	vs := rule.Check(db)
	if len(vs) == 0 {
		t.Fatal("unlabeled consumer of a constrained secret not caught")
	}
	if !strings.Contains(vs[0].Reason, "(unlabeled)") {
		t.Errorf("diagnostic does not name the unlabeled component: %v", vs[0])
	}

	// Objects without a pod spec (the Secrets themselves, Services) are
	// out of the rule's scope.
	for _, o := range objs {
		if o.Kind() == "Service" || o.Kind() == "Secret" {
			if got := rule.Check(o); len(got) != 0 {
				t.Errorf("non-pod object %s/%s flagged: %v", o.Kind(), o.Name(), got)
			}
		}
	}
}

// TestEnginesAgreeOnInvariants: the enforce and shadow paths both
// evaluate invariants through registry.validateVersion on the compiled
// program, so their violation lists on the same object must be
// identical — and identical to the interpreted oracle plus the rule.
func TestEnginesAgreeOnInvariants(t *testing.T) {
	objs, pol, rule := storeFixture(t)
	reg := registry.New(registry.Config{CacheSize: 64})
	e, err := reg.Register("store", registry.Selector{Namespace: "store"}, pol.Validator)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SetInvariants("store", []registry.Invariant{rule}); err != nil {
		t.Fatal(err)
	}
	check := func(o object.Object, wantDeny bool) {
		t.Helper()
		oracle := pol.Validator.Validate(o)
		if len(oracle) == 0 {
			oracle = rule.Check(o)
		}
		enforced := reg.Validate(e, nil, o)
		shadowed, _ := reg.ShadowValidate(e, nil, o)
		if !reflect.DeepEqual(enforced, oracle) || !reflect.DeepEqual(shadowed, oracle) {
			t.Errorf("%s/%s: paths diverge:\nenforce: %v\nshadow:  %v\noracle:  %v",
				o.Kind(), o.Name(), enforced, shadowed, oracle)
		}
		if (len(enforced) > 0) != wantDeny {
			t.Errorf("%s/%s: denied=%v, want %v (%v)", o.Kind(), o.Name(), len(enforced) > 0, wantDeny, enforced)
		}
	}
	for _, o := range objs {
		check(o, false)
	}
	for _, o := range violatingAdmissions(t, objs) {
		check(o, true)
	}
}

// TestRawPathFallsBackUnderInvariants: an entry carrying invariants must
// never decide on the raw streaming view (the scan vouches for schema
// shape only), but cached decode-path verdicts may short-circuit.
func TestRawPathFallsBackUnderInvariants(t *testing.T) {
	objs, pol, rule := storeFixture(t)
	reg := registry.New(registry.Config{CacheSize: 64})
	e, err := reg.Register("store", registry.Selector{Namespace: "store"}, pol.Validator)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SetInvariants("store", []registry.Invariant{rule}); err != nil {
		t.Fatal(err)
	}
	o := objs[0]
	body, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	meta, ok := compile.ScanRawMeta(body)
	if !ok {
		t.Fatal("scan of the benign body failed")
	}
	if _, decided := reg.ValidateRawScanned(e, body, meta); decided {
		t.Error("raw path decided for an entry with invariants before any cached verdict")
	}
	// Decode-path validation populates the cache; the raw path may now
	// answer from it (same generation, invariants included).
	if vs := reg.Validate(e, body, o); len(vs) != 0 {
		t.Fatalf("benign object denied: %v", vs)
	}
	vs, decided := reg.ValidateRawScanned(e, body, meta)
	if !decided || len(vs) != 0 {
		t.Errorf("cache short-circuit lost: decided=%v vs=%v", decided, vs)
	}
}

// TestCrossResourceInterleavingProperty is the satellite property test:
// across random interleavings of the three services' admissions — and
// with policy Swaps racing the traffic — a secret-mount violation is
// never forwarded and benign admissions are never denied, through a real
// proxy with the raw fast path enabled. The rule is stateless per
// request, so arrival order cannot matter; this test verifies that
// property end to end rather than assuming it.
func TestCrossResourceInterleavingProperty(t *testing.T) {
	objs, pol, rule := storeFixture(t)

	var events []replay.Event
	for _, o := range objs {
		for _, method := range []string{"POST", "PUT"} {
			ev, err := replay.BenignEvent("store", o, method)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, ev)
		}
	}
	for i, o := range violatingAdmissions(t, objs) {
		sc := mutate.Scenario{
			ID:          fmt.Sprintf("INV/cross-resource/%02d", i+1),
			AttackID:    "INV",
			Class:       "cross-resource",
			Description: "secret owned by another component consumed by this pod",
			Object:      o,
			Method:      "POST",
		}
		ev, err := replay.AttackEvent("store", sc)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}

	reg := registry.New(registry.Config{CacheSize: 256})
	if _, err := reg.Register("store", registry.Selector{Namespace: "store"}, pol.Validator); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetInvariants("store", []registry.Invariant{rule}); err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{
		Upstream:  "http://upstream.invalid",
		Transport: nullTransport{},
		Registry:  reg,
		ProxyUser: "kubefence-proxy",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	defer ts.Close()

	// Swaps race the replayed traffic: a reader must never observe a
	// snapshot without the invariants (Swap carries them over), so the
	// verdicts cannot change mid-run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reg.Swap("store", pol.Validator); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for seed := int64(1); seed <= 8; seed++ {
		res, err := replay.Run(ts.URL, events, replay.Options{Concurrency: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean() {
			t.Fatalf("seed %d: FN=%d FP=%d errors=%d mismatches=%v",
				seed, res.FalseNegatives, res.FalsePositives, res.Errors, res.Mismatches)
		}
	}
	close(stop)
	wg.Wait()
}
