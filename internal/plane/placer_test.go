package plane

import (
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/registry"
)

// --- planner units -----------------------------------------------------

func TestPlanWeightedBalancesSkew(t *testing.T) {
	active := []int{0, 1}
	rg := buildRing(active, 8)
	// One hot key plus seven cold ones, all currently crowded onto
	// replica 0.
	keys := []keyLoad{{key: "ns/hot", score: 100}}
	current := map[string]int{"ns/hot": 0}
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		keys = append(keys, keyLoad{key: "ns/" + k, score: 10})
		current["ns/"+k] = 0
	}
	plan := planWeighted(keys, active, current, rg, 0.2)
	if len(plan.moves) == 0 {
		t.Fatal("skewed start planned zero moves")
	}
	if plan.imbalanceAfter >= plan.imbalanceBefore {
		t.Errorf("imbalance did not improve: before %.3f, after %.3f",
			plan.imbalanceBefore, plan.imbalanceAfter)
	}
	// The hot key alone exceeds the mean (100 > 85*1.2 is false: mean
	// is 85, limit 102) — after rebalance every replica must be within
	// the hysteresis band.
	loads := map[int]float64{}
	for _, kl := range keys {
		loads[plan.assign[kl.key]] += kl.score
	}
	mean := 170.0 / 2
	for idx, l := range loads {
		if l > mean*1.2+1e-9 {
			t.Errorf("replica %d load %.1f exceeds limit %.1f after rebalance", idx, l, mean*1.2)
		}
	}
	// Deterministic: identical inputs produce identical plans.
	again := planWeighted(keys, active, current, rg, 0.2)
	if !reflect.DeepEqual(plan.assign, again.assign) || !reflect.DeepEqual(plan.moves, again.moves) {
		t.Error("planWeighted is not deterministic on identical inputs")
	}
}

func TestPlanWeightedHysteresisHoldsBalancedTier(t *testing.T) {
	active := []int{0, 1}
	rg := buildRing(active, 8)
	keys := []keyLoad{
		{key: "ns/a", score: 10}, {key: "ns/b", score: 10},
		{key: "ns/c", score: 10}, {key: "ns/d", score: 10},
	}
	current := map[string]int{"ns/a": 0, "ns/b": 0, "ns/c": 1, "ns/d": 1}
	plan := planWeighted(keys, active, current, rg, 0.2)
	if len(plan.moves) != 0 {
		t.Errorf("balanced tier planned %d moves, want 0 (hysteresis)", len(plan.moves))
	}
	// Mild imbalance inside the band must also hold still: 21 vs 19 is
	// max/mean 1.05 < 1.2.
	keys[0].score = 11
	keys[2].score = 9
	if plan := planWeighted(keys, active, current, rg, 0.2); len(plan.moves) != 0 {
		t.Errorf("in-band imbalance planned %d moves, want 0", len(plan.moves))
	}
}

func TestPlanWeightedSingleHotKeyCannotSplit(t *testing.T) {
	active := []int{0, 1, 2}
	rg := buildRing(active, 8)
	keys := []keyLoad{{key: "ns/hot", score: 1000}}
	plan := planWeighted(keys, active, map[string]int{"ns/hot": 0}, rg, 0.2)
	// One key holds all the load; no move can improve anything and the
	// planner must not thrash it around.
	if len(plan.moves) != 0 {
		t.Errorf("single hot key planned %d moves, want 0", len(plan.moves))
	}
	if got := plan.assign["ns/hot"]; got != 0 {
		t.Errorf("hot key rehomed to %d, want 0", got)
	}
}

func TestEpochScoreEWMA(t *testing.T) {
	// First epoch from zero state: 10 requests at mean cost 1500ns
	// (inside the clamp band) is an epoch load of 15000, halved by
	// alpha=0.5.
	score, st := epochScore(loadState{}, 10, 15000)
	if score != 7500 {
		t.Fatalf("first epoch score = %v, want 7500", score)
	}
	// A quiet second epoch decays, not zeroes.
	score, st = epochScore(st, 10, 15000)
	if score != 3750 {
		t.Fatalf("quiet epoch score = %v, want 3750", score)
	}
	// A counter reset (replica restart) clamps the delta to the new
	// cumulative value instead of wrapping negative.
	score, _ = epochScore(st, 4, 6000)
	if score != 4875 { // 0.5*(4*1500) + 0.5*3750
		t.Fatalf("post-reset score = %v, want 4875", score)
	}
	// Mean cost floors at minMeanCostNs: cache-hot requests that record
	// no validation time still carry their per-request weight.
	if score, _ := epochScore(loadState{}, 8, 0); score != 4*minMeanCostNs {
		t.Fatalf("zero-cost epoch score = %v, want %v", score, 4*minMeanCostNs)
	}
	// Mean cost caps at maxMeanCostNs: a one-time cold-validation spike
	// (2 requests carrying 2ms of cost) must not outscore a sustained
	// cache-hot stream, or cold tails would look hotter than the hot set.
	spike, _ := epochScore(loadState{}, 2, 2_000_000)
	if spike != 0.5*2*maxMeanCostNs {
		t.Fatalf("cold-spike epoch score = %v, want %v", spike, 0.5*2*maxMeanCostNs)
	}
	hot, _ := epochScore(loadState{}, 1000, 0)
	if hot <= spike {
		t.Fatalf("hot stream score %v did not dominate cold spike %v", hot, spike)
	}
}

// --- tier integration --------------------------------------------------

// skewedPlane registers nWorkloads namespaced workloads on a tier and
// drives skewed traffic: every namespace gets one benign request (which
// warms its decision cache), then a hot namespace gets hotExtra more.
// The hot namespace is picked from the most crowded replica so a
// weighted rebalance always has a movable neighbor; it is returned
// along with the full namespace list.
func skewedPlane(t *testing.T, replicas int, cfg Config, nWorkloads, hotExtra int) (*Plane, []string, string) {
	t.Helper()
	pl := newTestPlane(t, replicas, cfg)
	var nss []string
	for i := 0; i < nWorkloads; i++ {
		ns := string(rune('a'+i%26)) + "-ns"
		if i >= 26 {
			ns = string(rune('a'+i%26)) + "2-ns"
		}
		nss = append(nss, ns)
		w := "wl-" + ns
		if err := pl.Register(w, registry.Selector{Namespace: ns}, policyFor(t, w, false, img)); err != nil {
			t.Fatal(err)
		}
	}
	byOwner := make([][]string, replicas)
	for _, ns := range nss {
		o, err := pl.Owners("wl-" + ns)
		if err != nil || len(o) != 1 {
			t.Fatalf("Owners(%s) = (%v, %v)", ns, o, err)
		}
		byOwner[o[0]] = append(byOwner[o[0]], ns)
	}
	hotNS := nss[0]
	crowd := 0
	for _, group := range byOwner {
		if len(group) > crowd {
			crowd = len(group)
			hotNS = group[0]
		}
	}
	benign := podBody(false, img)
	for _, ns := range nss {
		if w := post(t, pl, "/api/v1/namespaces/"+ns+"/pods", benign); w.Code != http.StatusOK {
			t.Fatalf("warm %s: code %d", ns, w.Code)
		}
	}
	for i := 0; i < hotExtra; i++ {
		if w := post(t, pl, "/api/v1/namespaces/"+hotNS+"/pods", benign); w.Code != http.StatusOK {
			t.Fatalf("hot %s: code %d", hotNS, w.Code)
		}
	}
	return pl, nss, hotNS
}

func TestPlaneWeightedRebalanceMovesShardsWithCaches(t *testing.T) {
	pl, nss, _ := skewedPlane(t, 2, Config{
		CacheSize: 256, Placement: PlacementWeighted, RebalanceThreshold: 0.2,
	}, 8, 200)

	report, err := pl.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if report.Placement != PlacementWeighted {
		t.Errorf("report placement %q, want weighted", report.Placement)
	}
	if len(report.Moves) == 0 {
		t.Fatal("skewed 2-replica tier rebalanced with zero moves")
	}
	if report.ImbalanceAfter >= report.ImbalanceBefore {
		t.Errorf("imbalance did not improve: %.3f -> %.3f", report.ImbalanceBefore, report.ImbalanceAfter)
	}
	if report.HandoffEntries == 0 {
		t.Error("no cache entries travelled with the moved shards")
	}
	// A migration is a publish: the window must be closed when
	// Rebalance returns.
	tm := pl.Metrics()
	if tm.PublishesStarted != tm.PublishesCompleted {
		t.Errorf("publish window open after rebalance: %d started, %d completed",
			tm.PublishesStarted, tm.PublishesCompleted)
	}
	if tm.Rebalances != 1 || tm.ShardMigrations != uint64(len(report.Moves)) {
		t.Errorf("tier counters = (%d rebalances, %d migrations), want (1, %d)",
			tm.Rebalances, tm.ShardMigrations, len(report.Moves))
	}
	if tm.HandoffEntries != uint64(report.HandoffEntries) {
		t.Errorf("tier handoff entries %d, report says %d", tm.HandoffEntries, report.HandoffEntries)
	}

	// Every moved workload's hot set travelled: one benign replay per
	// namespace must HIT on the migration destination, not recompute.
	type probe struct {
		w    string
		to   int
		hits uint64
	}
	var probes []probe
	for _, mv := range report.Moves {
		if len(mv.Workloads) == 0 {
			t.Errorf("move of %s lists no workloads", mv.Key)
		}
		for _, w := range mv.Workloads {
			m, ok := pl.ReplicaWorkloadMetrics(mv.To, w)
			if !ok {
				t.Fatalf("destination %d does not hold moved workload %s", mv.To, w)
			}
			probes = append(probes, probe{w: w, to: mv.To, hits: m.CacheHits})
		}
	}
	benign := podBody(false, img)
	for _, ns := range nss {
		if w := post(t, pl, "/api/v1/namespaces/"+ns+"/pods", benign); w.Code != http.StatusOK {
			t.Fatalf("post-rebalance %s: code %d", ns, w.Code)
		}
		if w := post(t, pl, "/api/v1/namespaces/"+ns+"/pods", podBody(true, img)); w.Code != http.StatusForbidden {
			t.Errorf("post-rebalance attack on %s: code %d, want 403", ns, w.Code)
		}
	}
	for _, p := range probes {
		m, _ := pl.ReplicaWorkloadMetrics(p.to, p.w)
		if m.CacheHits <= p.hits {
			t.Errorf("workload %s on replica %d: %d hits after replay (was %d) — handoff lost the hot set",
				p.w, p.to, m.CacheHits, p.hits)
		}
	}
}

func TestPlaneHashRebalanceIsObservationOnly(t *testing.T) {
	pl, nss, _ := skewedPlane(t, 2, Config{CacheSize: 64}, 6, 50)
	before := map[string][]int{}
	for _, ns := range nss {
		o, err := pl.Owners("wl-" + ns)
		if err != nil {
			t.Fatal(err)
		}
		before[ns] = o
	}
	report, err := pl.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if report.Placement != PlacementHash || len(report.Moves) != 0 {
		t.Errorf("hash-placement rebalance = (%q, %d moves), want (hash, 0)", report.Placement, len(report.Moves))
	}
	if report.ImbalanceAfter != report.ImbalanceBefore {
		t.Errorf("hash rebalance changed imbalance: %.3f -> %.3f", report.ImbalanceBefore, report.ImbalanceAfter)
	}
	for _, ns := range nss {
		o, _ := pl.Owners("wl-" + ns)
		if !reflect.DeepEqual(o, before[ns]) {
			t.Errorf("hash rebalance moved %s: %v -> %v", ns, before[ns], o)
		}
	}
	if tm := pl.Metrics(); tm.Placement != "hash" || tm.Rebalances != 1 || tm.ShardMigrations != 0 {
		t.Errorf("tier metrics = (%s, %d, %d), want (hash, 1, 0)", tm.Placement, tm.Rebalances, tm.ShardMigrations)
	}
}

func TestPlaneWeightedRebalanceConverges(t *testing.T) {
	pl, _, _ := skewedPlane(t, 4, Config{
		CacheSize: 64, Placement: PlacementWeighted, RebalanceThreshold: 0.2,
	}, 12, 120)
	first, err := pl.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Moves) == 0 {
		t.Fatal("skewed 4-replica tier rebalanced with zero moves")
	}
	// A quiet epoch decays every score uniformly, so the balance the
	// first pass reached must hold: immediately rebalancing again may
	// not thrash shards back and forth.
	second, err := pl.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Moves) != 0 {
		t.Errorf("quiet follow-up rebalance moved %d shards, want 0 (hysteresis)", len(second.Moves))
	}
}

func TestPlaneMetricsExposePlacement(t *testing.T) {
	pl, nss, _ := skewedPlane(t, 2, Config{
		CacheSize: 64, Placement: PlacementWeighted, RebalanceThreshold: 0.2,
	}, 8, 100)
	if _, err := pl.Rebalance(); err != nil {
		t.Fatal(err)
	}
	tm := pl.Metrics()
	if tm.Placement != "weighted" {
		t.Errorf("placement %q, want weighted", tm.Placement)
	}
	shards := 0
	scored := 0.0
	for _, rm := range tm.Replicas {
		shards += rm.AssignedShards
		scored += rm.LoadScore
	}
	if shards != len(nss) {
		t.Errorf("assigned shards sum to %d, want %d (one ns key per workload)", shards, len(nss))
	}
	if scored <= 0 {
		t.Error("tier carried traffic but total load score is zero")
	}
	// The per-replica placement detail rides /varz.
	varz := scrape(planeMux(pl), "/varz").Body.String()
	if !strings.Contains(varz, `"assigned_shards"`) || !strings.Contains(varz, `"load_score"`) {
		t.Error("/varz does not expose placement detail")
	}
	if !strings.Contains(varz, `"placement": "weighted"`) {
		t.Error("/varz does not name the placement policy")
	}
}

func TestPlaneDrainHandsOffCaches(t *testing.T) {
	pl, nss, hotNS := skewedPlane(t, 3, Config{CacheSize: 64}, 6, 20)
	// Drain the replica owning the hot namespace; its workloads' caches
	// must travel to the new owners.
	owners, err := pl.Owners("wl-" + hotNS)
	if err != nil || len(owners) != 1 {
		t.Fatalf("Owners = (%v, %v)", owners, err)
	}
	if err := pl.Drain(owners[0]); err != nil {
		t.Fatal(err)
	}
	if tm := pl.Metrics(); tm.HandoffEntries == 0 {
		t.Error("drain moved shards but no cache entries travelled")
	}
	newOwners, _ := pl.Owners("wl-" + hotNS)
	if len(newOwners) != 1 || newOwners[0] == owners[0] {
		t.Fatalf("hot workload not re-homed: %v -> %v", owners, newOwners)
	}
	before, ok := pl.ReplicaWorkloadMetrics(newOwners[0], "wl-"+hotNS)
	if !ok {
		t.Fatal("new owner does not hold the drained workload")
	}
	benign := podBody(false, img)
	for _, ns := range nss {
		if w := post(t, pl, "/api/v1/namespaces/"+ns+"/pods", benign); w.Code != http.StatusOK {
			t.Fatalf("post-drain %s: code %d", ns, w.Code)
		}
	}
	after, _ := pl.ReplicaWorkloadMetrics(newOwners[0], "wl-"+hotNS)
	if after.CacheHits <= before.CacheHits {
		t.Errorf("drained workload's hot set did not travel: %d -> %d hits", before.CacheHits, after.CacheHits)
	}
}

func TestPlanePeriodicRebalanceAndClose(t *testing.T) {
	pl := newTestPlane(t, 2, Config{
		Placement: PlacementWeighted, RebalanceInterval: 5 * time.Millisecond,
	})
	deadline := time.Now().Add(2 * time.Second)
	for pl.Metrics().Rebalances == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic rebalancer never fired")
		}
		time.Sleep(5 * time.Millisecond) // the rebalancer runs on a ticker: poll it at its own period
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	n := pl.Metrics().Rebalances
	time.Sleep(30 * time.Millisecond) // six ticker periods: a loop that survived Close would fire in them
	if got := pl.Metrics().Rebalances; got > n+1 {
		// One in-flight tick may land after Close; a growing counter
		// means the loop survived it.
		t.Errorf("rebalances kept running after Close: %d -> %d", n, got)
	}
}
