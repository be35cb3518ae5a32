package registry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/object"
)

func benignCM(i int) object.Object {
	return object.Object{
		"apiVersion": "v1",
		"kind":       "ConfigMap",
		"metadata":   map[string]any{"name": "cm", "namespace": "default"},
		"data":       map[string]any{"key": fmt.Sprintf("v%d", i)},
	}
}

// TestModeTransitionProperty races policy swaps, shadow traffic, manual
// demotions, and a gate-evaluating promoter against one entry, checking
// the rollout lifecycle's core safety property: a promotion can only
// land for the policy generation the promoter finished shadowing — a
// Promote whose pinned generation was overtaken by a Swap must be
// refused, and every refusal must leave the mode untouched.
func TestModeTransitionProperty(t *testing.T) {
	const rounds = 40
	for round := 0; round < rounds; round++ {
		reg := New(Config{ShadowWindow: 128})
		if _, err := reg.RegisterLearning("w", Selector{Namespace: "default"}, nil); err != nil {
			t.Fatal(err)
		}
		e, _ := reg.Entry("w")
		if err := reg.Swap("w", policy(t, "w")); err != nil {
			t.Fatal(err)
		}
		if err := reg.SetMode("w", ModeShadow); err != nil {
			t.Fatal(err)
		}

		var (
			wg            sync.WaitGroup
			stop          atomic.Bool
			swapsStarted  atomic.Int64
			swapsDone     atomic.Int64
			promotedGen   atomic.Uint64
			staleAccepted atomic.Int64
		)

		// Swapper: candidate republications racing the promoter.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				swapsStarted.Add(1)
				if err := reg.Swap("w", policy(t, "w")); err != nil {
					t.Error(err)
					return
				}
				swapsDone.Add(1)
			}
		}()

		// Traffic: shadow verdicts under whatever generation is current.
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					reg.Validate(e, nil, benignCM(0))
				}
			}()
		}

		// Promoter: evaluates the gate exactly the way the rollout
		// controller does, then promotes pinned to the gated generation.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				gen := e.Generation()
				st := e.ShadowStats()
				if st.Generation != gen || st.GenRequests == 0 || st.WindowDenied > 0 {
					continue
				}
				// Done before started: if the two agree, no swap was in
				// flight when swapsBefore was read.
				doneBefore := swapsDone.Load()
				swapsBefore := swapsStarted.Load()
				err := reg.Promote("w", gen)
				if err == nil {
					promotedGen.Store(gen)
					// The generation can only have moved past the pinned
					// one if some swap overlapped or followed the
					// promotion; a promote that succeeded with NO
					// concurrent swap activity must leave gen untouched.
					if e.Generation() != gen && doneBefore == swapsBefore && swapsStarted.Load() == swapsBefore {
						staleAccepted.Add(1)
					}
					stop.Store(true)
					return
				}
				// A refused promotion must not have flipped the mode.
				if e.Mode() == ModeEnforce {
					staleAccepted.Add(1)
				}
			}
		}()

		wg.Wait()
		if staleAccepted.Load() != 0 {
			t.Fatalf("round %d: a stale generation was enforced", round)
		}
		if e.Mode() == ModeEnforce {
			// The promoter is the only path to enforce in this harness:
			// the enforced entry must carry a policy (fail-closed nil
			// candidates can never be promoted) and the promoted
			// generation must have been gated.
			if e.Program() == nil {
				t.Fatal("enforcing entry without a policy")
			}
			if promotedGen.Load() == 0 {
				t.Fatal("enforce mode reached without a successful promotion")
			}
		}
	}
}

// TestPromoteNeverAcceptsNilPolicy pins the fail-closed edge: a learning
// entry whose candidate was never published cannot be promoted, and
// validating it denies.
func TestPromoteNeverAcceptsNilPolicy(t *testing.T) {
	reg := New(Config{})
	if _, err := reg.RegisterLearning("w", Selector{}, nil); err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Entry("w")
	if err := reg.Promote("w", e.Generation()); err == nil {
		t.Fatal("promoted an entry with no policy")
	}
	if vs := reg.Validate(e, nil, benignCM(0)); len(vs) == 0 {
		t.Fatal("nil-policy entry did not fail closed")
	}
	if vs := reg.ValidateHashed(e, ModeShadow, nil, nil, benignCM(0)); len(vs) == 0 {
		t.Fatal("nil-policy shadow verdict did not deny")
	}
}

// TestShadowCountersSurviveSwap races shadow traffic against continuous
// policy swaps and checks the accounting properties: cumulative shadow
// counters are exact (nothing lost when a Swap resets the per-generation
// window), and every sampled snapshot is monotone.
func TestShadowCountersSurviveSwap(t *testing.T) {
	reg := New(Config{ShadowWindow: 64})
	if _, err := reg.Register("w", Selector{Namespace: "default"}, policy(t, "w")); err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Entry("w")
	if err := reg.SetMode("w", ModeShadow); err != nil {
		t.Fatal(err)
	}

	const (
		workers     = 4
		perWorker   = 400
		totalSwaps  = 200
		denyEachNth = 3
	)
	var (
		wg         sync.WaitGroup
		sentTotal  atomic.Uint64
		denedTotal atomic.Uint64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var o object.Object
				if i%denyEachNth == 0 {
					// Outside the policy: a guaranteed would-deny.
					o = object.Object{"apiVersion": "v1", "kind": "Secret",
						"metadata": map[string]any{"name": "s", "namespace": "default"}}
				} else {
					o = benignCM(0)
				}
				vs := reg.Validate(e, nil, o)
				sentTotal.Add(1)
				if len(vs) > 0 {
					denedTotal.Add(1)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < totalSwaps; i++ {
			if err := reg.Swap("w", policy(t, "w")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Sampler: cumulative counters must be monotone while windows reset.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastReq, lastDen uint64
		for i := 0; i < 2000; i++ {
			st := e.ShadowStats()
			if st.Requests < lastReq || st.Denied < lastDen {
				t.Errorf("cumulative shadow counters went backwards: %+v", st)
				return
			}
			lastReq, lastDen = st.Requests, st.Denied
			if st.WindowSize > 64 {
				t.Errorf("window exceeded its capacity: %+v", st)
				return
			}
			if st.GenDenied > st.Denied || st.GenRequests > st.Requests {
				t.Errorf("per-generation counters exceed cumulative: %+v", st)
				return
			}
		}
	}()
	wg.Wait()

	st := e.ShadowStats()
	if st.Requests != sentTotal.Load() {
		t.Errorf("cumulative shadow requests = %d, want %d (lost across swaps)",
			st.Requests, sentTotal.Load())
	}
	if st.Denied != denedTotal.Load() {
		t.Errorf("cumulative shadow denials = %d, want %d (lost across swaps)",
			st.Denied, denedTotal.Load())
	}
	// Shadow verdicts never touch the enforcement denial metric.
	if got := e.Metrics().Denied; got != 0 {
		t.Errorf("shadow traffic bumped the denied metric: %d", got)
	}
	if got := e.Metrics().ShadowDenied; got != denedTotal.Load() {
		t.Errorf("Metrics.ShadowDenied = %d, want %d", got, denedTotal.Load())
	}
}
