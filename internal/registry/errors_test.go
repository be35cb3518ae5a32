package registry

import (
	"errors"
	"testing"
)

// The distribution protocol (internal/plane) sorts failures into
// retryable and permanent classes by sentinel identity, so the exact
// errors.Is behavior of each control-plane entry point is contract.
func TestTypedSentinelErrors(t *testing.T) {
	v := rawTestPolicy(t)
	r := New(Config{})
	if _, err := r.Register("web", Selector{Namespace: "prod"}, v); err != nil {
		t.Fatalf("Register: %v", err)
	}

	t.Run("unknown workload", func(t *testing.T) {
		cases := map[string]error{
			"Swap":        r.Swap("ghost", v),
			"SetObserver": r.SetObserver("ghost", nil),
			"SetMode":     r.SetMode("ghost", ModeShadow),
			"Promote":     r.Promote("ghost", 1),
		}
		if _, err := r.Mode("ghost"); err != nil {
			cases["Mode"] = err
		} else {
			t.Errorf("Mode(ghost) succeeded for unregistered workload")
		}
		if _, err := r.Demote("ghost"); err != nil {
			cases["Demote"] = err
		} else {
			t.Errorf("Demote(ghost) succeeded for unregistered workload")
		}
		for op, err := range cases {
			if !errors.Is(err, ErrUnknownWorkload) {
				t.Errorf("%s(ghost) = %v, want errors.Is(err, ErrUnknownWorkload)", op, err)
			}
		}
	})

	t.Run("promote requires shadow mode", func(t *testing.T) {
		e, ok := r.Entry("web")
		if !ok {
			t.Fatal("web not registered")
		}
		gen := e.Generation()
		// Registered via the classic path => ModeEnforce.
		if err := r.Promote("web", gen); !errors.Is(err, ErrNotShadowing) {
			t.Fatalf("Promote(enforce-mode) = %v, want ErrNotShadowing", err)
		}
		if err := r.SetMode("web", ModeLearn); err != nil {
			t.Fatalf("SetMode: %v", err)
		}
		if err := r.Promote("web", gen); !errors.Is(err, ErrNotShadowing) {
			t.Fatalf("Promote(learn-mode) = %v, want ErrNotShadowing", err)
		}
		if err := r.SetMode("web", ModeShadow); err != nil {
			t.Fatalf("SetMode: %v", err)
		}
		if err := r.Promote("web", gen); err != nil {
			t.Fatalf("Promote(shadow-mode, current gen) = %v, want success", err)
		}
		if m, _ := r.Mode("web"); m != ModeEnforce {
			t.Fatalf("mode after promote = %v, want enforce", m)
		}
	})

	t.Run("stale generation still wins inside shadow", func(t *testing.T) {
		if err := r.SetMode("web", ModeShadow); err != nil {
			t.Fatalf("SetMode: %v", err)
		}
		e, _ := r.Entry("web")
		gated := e.Generation()
		if err := r.Swap("web", v); err != nil {
			t.Fatalf("Swap: %v", err)
		}
		err := r.Promote("web", gated)
		if !errors.Is(err, ErrStaleGeneration) {
			t.Fatalf("Promote(stale gen) = %v, want ErrStaleGeneration", err)
		}
		if errors.Is(err, ErrNotShadowing) || errors.Is(err, ErrUnknownWorkload) {
			t.Fatalf("stale-generation error must not alias other sentinels: %v", err)
		}
	})
}
