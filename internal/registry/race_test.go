package registry

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/object"
)

// TestConcurrentRegisterSwapResolve hammers every registry mutation and
// the resolution hot path from concurrent goroutines. Run under -race it
// is the registry's data-race regression net; without -race it still
// checks that concurrent swaps never expose a nil or foreign policy.
func TestConcurrentRegisterSwapResolve(t *testing.T) {
	const (
		tenants  = 8
		swappers = 4
		readers  = 8
		rounds   = 200
	)
	r := New(Config{CacheSize: 64})
	// Seed half the tenants; the other half are registered concurrently.
	for i := 0; i < tenants/2; i++ {
		w := fmt.Sprintf("tenant-%d", i)
		if _, err := r.Register(w, Selector{Namespace: w}, policy(t, w)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	// Registrars add the remaining tenants while traffic flows.
	for i := tenants / 2; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := fmt.Sprintf("tenant-%d", i)
			if _, err := r.Register(w, Selector{Namespace: w}, policy(t, w)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Swappers hot-swap seeded tenants' policies repeatedly.
	for s := 0; s < swappers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			w := fmt.Sprintf("tenant-%d", s%(tenants/2))
			for i := 0; i < rounds; i++ {
				if err := r.Swap(w, policy(t, w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	// Readers resolve and validate across all tenants.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o, body := validBody("cm")
			for i := 0; i < rounds; i++ {
				ns := fmt.Sprintf("tenant-%d", (g+i)%tenants)
				e, ok := r.Resolve(ns, "ConfigMap")
				if !ok {
					continue // not registered yet, acceptable mid-race
				}
				if e.Program() == nil {
					t.Error("resolved entry exposed a nil policy")
					return
				}
				vs := r.Validate(e, body, o)
				if len(vs) != 0 {
					t.Errorf("legit object denied: %v", vs)
					return
				}
				_ = r.Metrics()
				_ = r.Workloads()
			}
		}(g)
	}
	wg.Wait()

	if r.Len() != tenants {
		t.Fatalf("registered %d tenants, want %d", r.Len(), tenants)
	}
	for i := 0; i < tenants; i++ {
		w := fmt.Sprintf("tenant-%d", i)
		e, ok := r.Entry(w)
		if !ok {
			t.Fatalf("tenant %s missing after the race", w)
		}
		if e.Program() == nil {
			t.Fatalf("tenant %s has nil policy", w)
		}
	}
}

// TestConcurrentModeDenials: the registry counts its own denials. Under
// ModeEnforce every denying verdict is one Denied, from any number of
// goroutines and on the cache-miss and cache-hit paths alike; under
// ModeShadow the same verdicts deny nothing and count as shadow denials.
func TestConcurrentModeDenials(t *testing.T) {
	const goroutines, perG = 8, 300
	bad := object.Object{"apiVersion": "v1", "kind": "Secret",
		"metadata": map[string]any{"name": "s", "namespace": "default"}}
	body, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mode{ModeEnforce, ModeShadow} {
		r := New(Config{CacheSize: 16})
		e, err := r.Register("w", Selector{}, policy(t, "w"))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SetMode("w", m); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					if vs := r.Validate(e, body, bad); len(vs) == 0 {
						t.Errorf("%s: a Secret passed a ConfigMap policy", m)
						return
					}
				}
			}()
		}
		wg.Wait()
		wantDenied, wantShadow := uint64(goroutines*perG), uint64(0)
		if m == ModeShadow {
			wantDenied, wantShadow = 0, goroutines*perG
		}
		if got := e.Metrics().Denied; got != wantDenied {
			t.Errorf("%s: Denied = %d, want %d", m, got, wantDenied)
		}
		if got := e.ShadowStats().Denied; got != wantShadow {
			t.Errorf("%s: shadow Denied = %d, want %d", m, got, wantShadow)
		}
	}
}
