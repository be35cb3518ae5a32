package plane

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/registry"
)

// TestChaosKillRestartMidSwap kills and restarts replicas while policy
// swaps and enforcement traffic run full tilt, and asserts the tier's
// two distribution invariants under the race detector:
//
//  1. No stale-generation decision: once a Swap returns, a request
//     STARTED afterwards is never judged by the pre-swap policy — not
//     even by a replica that was killed mid-swap and rejoined, because
//     rejoin requires a full resync from the control plane's desired
//     state before the replica re-enters the ring.
//  2. Fail-closed shedding: whatever the topology does, a request that
//     violates the current policy is never forwarded. Chaos may turn a
//     verdict into a 429/503 shed, never into a silent allow.
//
// The policy alternates between two generations with DISJOINT benign
// sets (v1 allows hostNetwork=false, v2 allows hostNetwork=true), so a
// stale verdict is directly observable as the wrong status code.
func TestChaosKillRestartMidSwap(t *testing.T) {
	pl := newTestPlane(t, 3, Config{})
	v1 := policyFor(t, "wl", false, img)
	v2 := policyFor(t, "wl", true, img)
	// Several sibling workloads so the kill always disturbs real
	// ownership somewhere even as shards move.
	for _, ns := range []string{"n1", "n2", "n3", "n4", "n5"} {
		if err := pl.Register("wl-"+ns, registry.Selector{Namespace: ns}, policyFor(t, "wl-"+ns, false, img)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Register("wl", registry.Selector{Namespace: "prod"}, v1); err != nil {
		t.Fatal(err)
	}

	// phase is a seqlock around the swapper's publishes: it is advanced
	// immediately BEFORE and AFTER every Swap, so an odd value means a
	// publish is in flight and an even value 2k means exactly k swaps
	// have completed and none has started since. The policy in force at
	// an even phase is therefore (phase/2)%2: 0 => v1 (false benign),
	// 1 => v2 (true benign). Both bumps are needed for the oracle to be
	// sound: with only the trailing one, a request that starts during or
	// just after a publish sees the new policy while the counter still
	// reads the old value, and a correct tier is reported stale.
	var phase atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	bodyFalse := podBody(false, img)
	bodyTrue := podBody(true, img)

	// Swapper: v1 -> v2 -> v1 -> ... as fast as it can.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := v2
			if i%2 == 1 {
				next = v1
			}
			phase.Add(1)
			err := pl.Swap("wl", next)
			phase.Add(1)
			if err != nil {
				t.Errorf("Swap: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Chaos monkey: kill and restart each replica in turn, mid-swap by
	// construction (the swapper never pauses).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			idx := i % 3
			if err := pl.Kill(idx); err != nil {
				t.Errorf("Kill(%d): %v", idx, err)
				return
			}
			time.Sleep(500 * time.Microsecond)
			if err := pl.Restart(idx); err != nil {
				t.Errorf("Restart(%d): %v", idx, err)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Traffic: every request snapshots the phase before it starts and
	// again after it returns. If both snapshots are the same EVEN value,
	// no publish overlapped the request and the verdict must be exactly
	// that phase's policy's; otherwise a publish was in flight at some
	// point and either of the two generations' verdicts is legal
	// (bounded mixed window), so the probe is not judged — but any
	// status other than a verdict or a fail-closed shed is always fatal.
	const workers = 4
	var served, shed atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := phase.Load()
				wantAllow, wantDeny := bodyFalse, bodyTrue
				if (before/2)%2 == 1 {
					wantAllow, wantDeny = bodyTrue, bodyFalse
				}
				for _, probe := range []struct {
					body  []byte
					allow bool
				}{{wantAllow, true}, {wantDeny, false}} {
					req := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/prod/pods", bytes.NewReader(probe.body))
					req.Header.Set("Content-Type", "application/json")
					rec := httptest.NewRecorder()
					pl.ServeHTTP(rec, req)
					after := phase.Load()
					switch rec.Code {
					case http.StatusOK, http.StatusForbidden:
						served.Add(1)
						stable := before == after && before%2 == 0
						if stable && probe.allow && rec.Code != http.StatusOK {
							t.Errorf("phase %d: allowed body denied (stale generation served): %s", before, rec.Body)
						}
						if stable && !probe.allow && rec.Code != http.StatusForbidden {
							t.Errorf("phase %d: denied body forwarded (stale generation served)", before)
						}
					case http.StatusServiceUnavailable, http.StatusTooManyRequests:
						shed.Add(1) // fail-closed shed, acceptable under chaos
					default:
						t.Errorf("unexpected status %d under chaos: %s", rec.Code, rec.Body)
					}
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("chaos run served zero requests — invariants never exercised")
	}
	t.Logf("chaos: %d served, %d shed, %d swaps, %d resyncs",
		served.Load(), shed.Load(), phase.Load()/2, pl.Metrics().Resyncs)

	// Quiesce: after the chaos stops and every replica is restored, the
	// tier must converge to the final generation everywhere.
	for i := 0; i < 3; i++ {
		if st, _ := pl.State(i); st == ReplicaDown {
			if err := pl.Restart(i); err != nil {
				t.Fatalf("final Restart(%d): %v", i, err)
			}
		}
	}
	final := phase.Load()
	wantAllow, wantDeny := bodyFalse, bodyTrue
	if (final/2)%2 == 1 {
		wantAllow, wantDeny = bodyTrue, bodyFalse
	}
	for i := 0; i < 50; i++ {
		if w := post(t, pl, "/api/v1/namespaces/prod/pods", wantAllow); w.Code != http.StatusOK {
			t.Fatalf("quiesced benign: code %d body %s", w.Code, w.Body)
		}
		if w := post(t, pl, "/api/v1/namespaces/prod/pods", wantDeny); w.Code != http.StatusForbidden {
			t.Fatalf("quiesced attack: code %d (fail-open after chaos)", w.Code)
		}
	}
	tm := pl.Metrics()
	if tm.PublishesStarted != tm.PublishesCompleted {
		t.Errorf("publishes: started %d != completed %d after quiesce", tm.PublishesStarted, tm.PublishesCompleted)
	}
}

// TestChaosRebalanceMidSwap races weighted rebalances against policy
// swaps and enforcement traffic: a rotating hot namespace keeps the
// load imbalanced so shards (and their workloads' hot caches) migrate
// continuously while a swapper alternates the probed workload's policy
// between two generations with disjoint benign sets. The invariants
// are the publish window's, extended to migrations:
//
//  1. No stale-generation verdict: a request started after a Swap
//     returned is never judged by the pre-swap policy, even when its
//     shard is mid-migration — the destination is installed at the
//     current generation before routing flips, and the source is a live
//     holder kept current by the swap itself.
//  2. No silent allow during a move: a body the current policy denies
//     is either denied or shed, never forwarded, whatever the placer is
//     doing to the routing table underneath.
func TestChaosRebalanceMidSwap(t *testing.T) {
	pl := newTestPlane(t, 3, Config{
		CacheSize:          128,
		Placement:          PlacementWeighted,
		RebalanceThreshold: 0.05,
		LoadSmoothing:      0.9,
	})
	v1 := policyFor(t, "wl", false, img)
	v2 := policyFor(t, "wl", true, img)
	siblings := []string{"n1", "n2", "n3", "n4", "n5", "n6"}
	for _, ns := range siblings {
		if err := pl.Register("wl-"+ns, registry.Selector{Namespace: ns}, policyFor(t, "wl-"+ns, false, img)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Register("wl", registry.Selector{Namespace: "prod"}, v1); err != nil {
		t.Fatal(err)
	}

	var phase atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	bodyFalse := podBody(false, img)
	bodyTrue := podBody(true, img)

	// Swapper: v1 -> v2 -> v1 -> ...
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := v2
			if i%2 == 1 {
				next = v1
			}
			phase.Add(1)
			err := pl.Swap("wl", next)
			phase.Add(1)
			if err != nil {
				t.Errorf("Swap: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Placer: rebalance as fast as it can; the rotating hot namespace
	// below keeps handing it fresh imbalance to chase.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := pl.Rebalance(); err != nil {
				t.Errorf("Rebalance: %v", err)
				return
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()

	const workers = 4
	var served, shed atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Hammer a rotating hot namespace so the placer keeps
				// migrating shards under the probes. Benign sibling
				// traffic must never be denied; attacks never allowed.
				hot := siblings[(i/32)%len(siblings)]
				hotPath := "/api/v1/namespaces/" + hot + "/pods"
				for _, probe := range []struct {
					body  []byte
					allow bool
				}{{bodyFalse, true}, {bodyTrue, false}} {
					req := httptest.NewRequest(http.MethodPost, hotPath, bytes.NewReader(probe.body))
					req.Header.Set("Content-Type", "application/json")
					rec := httptest.NewRecorder()
					pl.ServeHTTP(rec, req)
					switch {
					case probe.allow && rec.Code == http.StatusOK,
						!probe.allow && rec.Code == http.StatusForbidden:
						served.Add(1)
					case rec.Code == http.StatusServiceUnavailable || rec.Code == http.StatusTooManyRequests:
						shed.Add(1)
					case !probe.allow:
						t.Errorf("sibling attack forwarded mid-rebalance: status %d", rec.Code)
					default:
						t.Errorf("sibling benign denied mid-rebalance: status %d body %s", rec.Code, rec.Body)
					}
				}

				// The swapped workload: judged only between two equal even
				// phase snapshots, exactly as in TestChaosKillRestartMidSwap.
				before := phase.Load()
				wantAllow, wantDeny := bodyFalse, bodyTrue
				if (before/2)%2 == 1 {
					wantAllow, wantDeny = bodyTrue, bodyFalse
				}
				for _, probe := range []struct {
					body  []byte
					allow bool
				}{{wantAllow, true}, {wantDeny, false}} {
					req := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/prod/pods", bytes.NewReader(probe.body))
					req.Header.Set("Content-Type", "application/json")
					rec := httptest.NewRecorder()
					pl.ServeHTTP(rec, req)
					after := phase.Load()
					switch rec.Code {
					case http.StatusOK, http.StatusForbidden:
						served.Add(1)
						stable := before == after && before%2 == 0
						if stable && probe.allow && rec.Code != http.StatusOK {
							t.Errorf("phase %d: allowed body denied mid-rebalance (stale generation): %s", before, rec.Body)
						}
						if stable && !probe.allow && rec.Code != http.StatusForbidden {
							t.Errorf("phase %d: denied body forwarded mid-rebalance (stale generation)", before)
						}
					case http.StatusServiceUnavailable, http.StatusTooManyRequests:
						shed.Add(1)
					default:
						t.Errorf("unexpected status %d under rebalance chaos: %s", rec.Code, rec.Body)
					}
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	tm := pl.Metrics()
	if served.Load() == 0 {
		t.Fatal("rebalance chaos served zero requests — invariants never exercised")
	}
	if tm.ShardMigrations == 0 {
		t.Fatal("rebalance chaos migrated zero shards — the mid-move window was never exercised")
	}
	if tm.PublishesStarted != tm.PublishesCompleted {
		t.Errorf("publish window open after rebalance chaos: %d started, %d completed",
			tm.PublishesStarted, tm.PublishesCompleted)
	}
	t.Logf("rebalance chaos: %d served, %d shed, %d swaps, %d rebalances, %d migrations, %d handoff entries",
		served.Load(), shed.Load(), phase.Load()/2, tm.Rebalances, tm.ShardMigrations, tm.HandoffEntries)

	// Quiesce: the tier converges to the final generation everywhere.
	final := phase.Load()
	wantAllow, wantDeny := bodyFalse, bodyTrue
	if (final/2)%2 == 1 {
		wantAllow, wantDeny = bodyTrue, bodyFalse
	}
	for i := 0; i < 50; i++ {
		if w := post(t, pl, "/api/v1/namespaces/prod/pods", wantAllow); w.Code != http.StatusOK {
			t.Fatalf("quiesced benign: code %d body %s", w.Code, w.Body)
		}
		if w := post(t, pl, "/api/v1/namespaces/prod/pods", wantDeny); w.Code != http.StatusForbidden {
			t.Fatalf("quiesced attack: code %d (fail-open after rebalance chaos)", w.Code)
		}
	}
}
