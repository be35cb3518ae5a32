package registry

import (
	"testing"

	"repro/internal/object"
)

func TestModeNamesRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeEnforce, ModeShadow, ModeLearn} {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), back, err)
		}
	}
	if _, err := ParseMode("observe"); err == nil {
		t.Error("unknown mode must not parse")
	}
	if s := Mode(42).String(); s != "Mode(42)" {
		t.Errorf("unknown mode renders %q", s)
	}
}

type recordingObserver struct{ seen int }

func (r *recordingObserver) Observe(object.Object) { r.seen++ }

func TestLearnModeAccounting(t *testing.T) {
	reg := New(Config{})
	obs := &recordingObserver{}
	if _, err := reg.RegisterLearning("w", Selector{Namespace: "default"}, obs); err != nil {
		t.Fatal(err)
	}
	if mode, err := reg.Mode("w"); err != nil || mode != ModeLearn {
		t.Fatalf("mode = %v, %v", mode, err)
	}
	if modes := reg.Modes(); modes["w"] != ModeLearn {
		t.Fatalf("Modes() = %v", modes)
	}
	e, _ := reg.Entry("w")
	for i := 0; i < 3; i++ {
		e.ObserveLearn(benignCM(i))
	}
	if obs.seen != 3 || e.Learned() != 3 {
		t.Fatalf("observer saw %d, Learned() = %d", obs.seen, e.Learned())
	}
	if m := e.Metrics(); m.Learned != 3 || m.Requests != 3 {
		t.Fatalf("metrics = %+v", m)
	}

	// Replacing and detaching the observer.
	obs2 := &recordingObserver{}
	if err := reg.SetObserver("w", obs2); err != nil {
		t.Fatal(err)
	}
	e.ObserveLearn(benignCM(0))
	if obs2.seen != 1 || obs.seen != 3 {
		t.Fatalf("observer swap: old %d, new %d", obs.seen, obs2.seen)
	}
	if err := reg.SetObserver("w", nil); err != nil {
		t.Fatal(err)
	}
	e.ObserveLearn(benignCM(0))
	if obs2.seen != 1 {
		t.Fatal("detached observer still fed")
	}
	if err := reg.SetObserver("missing", obs); err == nil {
		t.Error("SetObserver on an unknown workload must error")
	}
}

func TestShadowLogAndDemote(t *testing.T) {
	reg := New(Config{ShadowWindow: 8})
	if _, err := reg.Register("w", Selector{Namespace: "default"}, policy(t, "w")); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetMode("w", ModeShadow); err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Entry("w")
	bad := object.Object{"apiVersion": "v1", "kind": "Secret",
		"metadata": map[string]any{"name": "s", "namespace": "default"}}
	for i := 0; i < 12; i++ {
		if vs := reg.Validate(e, nil, bad); len(vs) == 0 {
			t.Fatalf("shadow verdict = %v", vs)
		}
	}
	st := e.ShadowStats()
	if st.WindowSize != 8 || st.WindowDenied != 8 || st.Generation != e.Generation() {
		t.Fatalf("window = %+v", st)
	}
	if r := st.WindowDenyRate(); r != 1.0 {
		t.Fatalf("deny rate = %v", r)
	}
	if (ShadowStats{}).WindowDenyRate() != 0 {
		t.Error("empty window must rate 0")
	}

	// Demote reports the previous mode and lands in shadow.
	if err := reg.SetMode("w", ModeEnforce); err != nil {
		t.Fatal(err)
	}
	prev, err := reg.Demote("w")
	if err != nil || prev != ModeEnforce {
		t.Fatalf("Demote = %v, %v", prev, err)
	}
	if mode, _ := reg.Mode("w"); mode != ModeShadow {
		t.Fatal("not in shadow after demotion")
	}
	if _, err := reg.Demote("missing"); err == nil {
		t.Error("Demote on an unknown workload must error")
	}
	if _, err := reg.Mode("missing"); err == nil {
		t.Error("Mode on an unknown workload must error")
	}
	if err := reg.SetMode("missing", ModeShadow); err == nil {
		t.Error("SetMode on an unknown workload must error")
	}
	if err := reg.Promote("missing", 1); err == nil {
		t.Error("Promote on an unknown workload must error")
	}
}
