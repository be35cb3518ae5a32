package learn

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/object"
	"repro/internal/registry"
)

func benignObj(i int) object.Object {
	return object.Object{
		"apiVersion": "v1",
		"kind":       "Pod",
		"metadata":   map[string]any{"name": fmt.Sprintf("p%d", i%3), "namespace": "ns"},
		"spec": map[string]any{
			"hostname": "fixed",
			"nodeName": fmt.Sprintf("n%d", i%2),
		},
	}
}

func attackObj() object.Object {
	return object.Object{
		"apiVersion": "v1",
		"kind":       "Pod",
		"metadata":   map[string]any{"name": "evil", "namespace": "ns"},
		"spec": map[string]any{
			"hostname":    "fixed",
			"nodeName":    "n0",
			"hostNetwork": true,
		},
	}
}

func TestLifecycleLearnShadowEnforce(t *testing.T) {
	reg := registry.New(registry.Config{ShadowWindow: 64})
	ctl := NewController(reg, GateConfig{
		MinLearnRequests:  10,
		MinShadowRequests: 10,
	})
	miner, err := ctl.AddWorkload("w", registry.Selector{Namespace: "ns"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := reg.Entry("w")
	if !ok || e.Mode() != registry.ModeLearn {
		t.Fatalf("workload not registered in learn mode (mode %v)", e.Mode())
	}

	// Not enough traffic: no transition.
	if trs := ctl.Tick(); len(trs) != 0 {
		t.Fatalf("premature transition: %+v", trs)
	}

	// Learn phase: feed the observer the way the proxy would.
	for i := 0; i < 12; i++ {
		e.ObserveLearn(benignObj(i))
	}
	if miner.Requests() != 12 {
		t.Fatalf("miner observed %d", miner.Requests())
	}
	trs := ctl.Tick()
	if len(trs) != 1 || trs[0].To != registry.ModeShadow {
		t.Fatalf("expected learn→shadow, got %+v", trs)
	}
	if e.Mode() != registry.ModeShadow {
		t.Fatal("mode not shadow after transition")
	}

	// Shadow phase: benign traffic validates clean against the candidate.
	for i := 0; i < 12; i++ {
		if vs := reg.Validate(e, nil, benignObj(i)); len(vs) != 0 {
			t.Fatalf("candidate denies its own trace: %v", vs)
		}
	}
	trs = ctl.Tick()
	if len(trs) != 1 || trs[0].To != registry.ModeEnforce {
		t.Fatalf("expected shadow→enforce, got %+v (shadow %+v)", trs, e.ShadowStats())
	}

	// Enforced: the mined policy blocks what it never saw.
	if vs := reg.Validate(e, nil, attackObj()); len(vs) == 0 {
		t.Fatal("hostNetwork attack not denied by the promoted policy")
	}
	if vs := reg.Validate(e, nil, benignObj(1)); len(vs) != 0 {
		t.Fatalf("benign denied after promotion: %v", vs)
	}

	states := ctl.States()
	if len(states) != 1 || states[0].Mode != "enforce" || states[0].Promotions != 1 {
		t.Fatalf("states = %+v", states)
	}
}

func TestShadowFPFeedbackGrowsCandidate(t *testing.T) {
	reg := registry.New(registry.Config{})
	ctl := NewController(reg, GateConfig{MinLearnRequests: 4, MinShadowRequests: 8})
	miner, err := ctl.AddWorkload("w", registry.Selector{Namespace: "ns"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Entry("w")
	for i := 0; i < 4; i++ {
		e.ObserveLearn(benignObj(0))
	}
	ctl.Tick() // → shadow
	gen1 := e.Generation()

	// A benign object the candidate has never seen: shadow would-deny.
	novel := benignObj(0)
	novel["spec"].(map[string]any)["subdomain"] = "svc"
	vs := reg.Validate(e, nil, novel)
	if len(vs) == 0 {
		t.Fatal("novel field should shadow-deny before feedback")
	}
	// The proxy feeds would-denied shadow traffic back to the observer.
	v0 := miner.Version()
	miner.Observe(novel)
	if miner.Version() == v0 {
		t.Fatal("feedback did not grow the miner")
	}
	// Next tick publishes the grown candidate (no promotion yet).
	if trs := ctl.Tick(); len(trs) != 0 {
		t.Fatalf("unexpected transition: %+v", trs)
	}
	if e.Generation() == gen1 {
		t.Fatal("candidate not re-published after growth")
	}
	if vs := reg.Validate(e, nil, novel); len(vs) != 0 {
		t.Fatalf("grown candidate still denies the fed-back object: %v", vs)
	}
}

func TestDemotionOnDenialSpike(t *testing.T) {
	reg := registry.New(registry.Config{})
	ctl := NewController(reg, GateConfig{
		MinLearnRequests:  2,
		MinShadowRequests: 2,
		DemoteDenyRate:    0.5,
		DemoteMinRequests: 4,
	})
	if _, err := ctl.AddWorkload("w", registry.Selector{Namespace: "ns"}, Options{}); err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Entry("w")
	for i := 0; i < 3; i++ {
		e.ObserveLearn(benignObj(i))
	}
	ctl.Tick() // → shadow
	for i := 0; i < 3; i++ {
		reg.Validate(e, nil, benignObj(i))
	}
	ctl.Tick() // → enforce
	if e.Mode() != registry.ModeEnforce {
		t.Fatalf("not enforcing: %v", e.Mode())
	}
	ctl.Tick() // establishes the enforce-mode rate basis

	// A burst of denials (e.g. a chart upgrade changed the workload's
	// manifests): every request denied.
	for i := 0; i < 6; i++ {
		if vs := reg.Validate(e, nil, attackObj()); len(vs) == 0 {
			t.Fatal("attack object allowed")
		}
	}
	trs := ctl.Tick()
	if len(trs) != 1 || trs[0].To != registry.ModeShadow {
		t.Fatalf("expected enforce→shadow demotion, got %+v", trs)
	}
	if e.Mode() != registry.ModeShadow {
		t.Fatal("not demoted")
	}
	if ctl.States()[0].Demotions != 1 {
		t.Fatalf("states = %+v", ctl.States())
	}
}

func TestPromoteRefusesStaleGeneration(t *testing.T) {
	reg := registry.New(registry.Config{})
	ctl := NewController(reg, GateConfig{MinLearnRequests: 1, MinShadowRequests: 1})
	miner, err := ctl.AddWorkload("w", registry.Selector{Namespace: "ns"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Entry("w")
	e.ObserveLearn(benignObj(0))
	ctl.Tick() // → shadow
	gen := e.Generation()
	reg.Validate(e, nil, benignObj(0))

	// A swap lands after the gate evaluation: promotion must refuse.
	pol, err := miner.Policy()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Swap("w", pol); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("w", gen); err == nil {
		t.Fatal("Promote accepted a stale generation")
	}
	if e.Mode() != registry.ModeShadow {
		t.Fatal("mode changed despite refused promotion")
	}
}

func TestTraceRoundTripAndSkipAccounting(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := tw.Record(TraceEntry{
			Workload: "w", Method: "POST", Path: "/api/v1/namespaces/ns/pods",
			Object: map[string]any(benignObj(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the stream the way a crashed tap would: a truncated line
	// and a line with no object.
	buf.WriteString("{\"workload\":\"w\",\"object\":{\"kind\":")
	buf.WriteString("\n{\"workload\":\"w\"}\n\n")

	entries, skipped, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped = %+v", skipped)
	}
	if skipped[0].Line != 4 || !strings.Contains(skipped[0].Error(), "line 4") {
		t.Errorf("skipped[0] = %+v", skipped[0])
	}

	m := New("w", Options{})
	if n := m.ObserveTrace(entries); n != 3 {
		t.Fatalf("observed %d", n)
	}
	if _, err := m.Policy(); err != nil {
		t.Fatal(err)
	}
	// Foreign-workload entries are skipped.
	other := New("other", Options{})
	if n := other.ObserveTrace(entries); n != 0 {
		t.Fatalf("foreign observations = %d", n)
	}
}

func TestAdoptShadowsExistingPolicy(t *testing.T) {
	reg := registry.New(registry.Config{})
	ctl := NewController(reg, GateConfig{MinLearnRequests: 1, MinShadowRequests: 3})

	// A chart-derived policy registered the classic way: enforce mode.
	base := New("w", Options{})
	for i := 0; i < 3; i++ {
		base.Observe(benignObj(i))
	}
	basePol, err := base.Policy()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("w", registry.Selector{Namespace: "ns"}, basePol); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Adopt("w", basePol, Options{}); err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Entry("w")
	if e.Mode() != registry.ModeShadow {
		t.Fatalf("adopted workload not shadowing: %v", e.Mode())
	}

	// Shadow FP feedback: a benign object outside the base policy.
	novel := benignObj(0)
	novel["spec"].(map[string]any)["subdomain"] = "svc"
	vs := reg.Validate(e, nil, novel)
	if len(vs) == 0 {
		t.Fatal("novel object should shadow-deny against the base policy")
	}
	if obs := e.Observer(); obs == nil {
		t.Fatal("no observer attached by Adopt")
	} else {
		obs.Observe(novel)
	}
	ctl.Tick() // publishes base ∪ mined

	// The union must keep the base surface AND admit the fed-back shape.
	if vs := reg.Validate(e, nil, novel); len(vs) != 0 {
		t.Fatalf("union candidate still denies the fed-back object: %v", vs)
	}
	for i := 0; i < 3; i++ {
		if vs := reg.Validate(e, nil, benignObj(i)); len(vs) != 0 {
			t.Fatalf("union candidate dropped base surface: %v", vs)
		}
	}
	if trs := ctl.Tick(); len(trs) != 1 || trs[0].To != registry.ModeEnforce {
		t.Fatalf("expected promotion, got %+v", trs)
	}
	if vs := reg.Validate(e, nil, attackObj()); len(vs) == 0 {
		t.Fatal("attack allowed after adopted promotion")
	}
}

func TestAdoptRequiresExistingPolicy(t *testing.T) {
	reg := registry.New(registry.Config{})
	ctl := NewController(reg, GateConfig{})
	if _, err := ctl.Adopt("missing", nil, Options{}); err == nil {
		t.Error("adopting an unregistered workload must error")
	}
	if _, err := reg.RegisterLearning("bare", registry.Selector{}, nil); err != nil {
		t.Fatal(err)
	}
	m := New("w", Options{})
	m.Observe(benignObj(0))
	base, err := m.Policy()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Adopt("bare", base, Options{}); err == nil {
		t.Error("adopting a policy-less workload must error")
	}
	if _, err := reg.Register("w", registry.Selector{}, base); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Adopt("w", nil, Options{}); err == nil {
		t.Error("adopting without a base validator must error")
	}
}
