package plane

import (
	"slices"
	"sort"
	"time"

	"repro/internal/registry"
)

// Load-aware weighted placement.
//
// The consistent-hash ring places shard keys blindly: under skewed
// traffic (a handful of hot namespaces) the replica that happens to own
// the hot keys saturates while its peers idle, and tier efficiency
// collapses well below 1/N. Weighted placement overlays an explicit
// assignment map on the ring: each workload carries an EWMA load score
// (requests x mean decision cost per epoch), scores fold onto shard
// keys, and Rebalance greedily moves the heaviest keys off overloaded
// replicas until the maximum is within a hysteresis band of the mean.
// The ring remains the fallback for keys no rebalance has placed, so a
// weighted tier degrades to hash placement, never to nothing.
//
// When a key moves, the workloads it addresses move with their hot
// decision sets: the destination replica is installed at the current
// generation and its cache primed from the source (ExportCache /
// ImportCache, which independently verify policy identity) BEFORE the route table flips — a migration is a publish like
// any other and is bounded by the same PublishesStarted/Completed
// window.

// PlacementPolicy selects how shard keys map to replicas.
type PlacementPolicy string

const (
	// PlacementHash places shards purely by consistent hashing (the
	// default).
	PlacementHash PlacementPolicy = "hash"
	// PlacementWeighted overlays load-aware assignment on the hash
	// placement: Rebalance migrates the heaviest shard keys off
	// overloaded replicas and carries each migrated workload's hot
	// decision cache along.
	PlacementWeighted PlacementPolicy = "weighted"
)

const (
	// defaultRebalanceThreshold is the hysteresis band when
	// Config.RebalanceThreshold is zero: rebalance only while the
	// most loaded replica exceeds the mean by 20%.
	defaultRebalanceThreshold = 0.2
	// loadSmoothing is the EWMA coefficient of per-workload load
	// scores: each epoch's observation and the running score weigh
	// equally.
	loadSmoothing = 0.5
)

func (pl *Plane) placement() PlacementPolicy {
	if pl.cfg.Placement == "" {
		return PlacementHash
	}
	return pl.cfg.Placement
}

func (pl *Plane) threshold() float64 {
	if pl.cfg.RebalanceThreshold <= 0 {
		return defaultRebalanceThreshold
	}
	return pl.cfg.RebalanceThreshold
}

// --- load scoring ------------------------------------------------------

// loadState is one workload's EWMA bookkeeping between rebalance epochs.
type loadState struct {
	score        float64
	lastRequests uint64
	lastCostNs   uint64
}

// minMeanCostNs floors the observed mean per-request cost. A cached
// decision records (nearly) zero validation time, but the request still
// paid routing, body copy, and proxy overhead — without a floor a
// cache-hot workload would score as weightless and the placer would
// never spread the very traffic the cache makes cheap to serve but
// expensive to crowd.
const minMeanCostNs = 1000

// maxMeanCostNs caps the observed mean per-request cost. The cumulative
// counters fold one-time transients — chiefly the cold validation every
// object pays exactly once before its decision caches — into the mean,
// and a cold pass costs roughly the same total for every workload
// regardless of traffic. Divided by very different request counts, that
// constant makes cold, rarely-hit workloads look *hotter* per request
// than the cache-warmed hot set, inverting the ordering the placer
// exists to find. The band is deliberately tight (2x the floor): the
// hotter a workload, the further that constant is diluted below any
// wider cap, so only the hot set would escape clamping and it would be
// systematically underweighted — the exact traffic LPT must not
// underpack. Request volume is what saturates a replica's admission
// slots; cost may only tilt scores within the band.
const maxMeanCostNs = 2 * minMeanCostNs

// epochScore folds one epoch's cumulative observation into a workload's
// EWMA score: score = a * (delta requests x mean cost) + (1-a) *
// previous, with a = loadSmoothing. Mean cost is clamped to the
// [minMeanCostNs, maxMeanCostNs] band, and deltas clamp when the
// cumulative counters shrank (a replica restart reset them).
func epochScore(st loadState, reqs, costNs uint64) (float64, loadState) {
	dReq := reqs - st.lastRequests
	if reqs < st.lastRequests {
		dReq = reqs
	}
	dCost := costNs - st.lastCostNs
	if costNs < st.lastCostNs {
		dCost = costNs
	}
	var epoch float64
	if dReq > 0 {
		meanCost := float64(dCost) / float64(dReq)
		if meanCost < minMeanCostNs {
			meanCost = minMeanCostNs
		}
		if meanCost > maxMeanCostNs {
			meanCost = maxMeanCostNs
		}
		epoch = float64(dReq) * meanCost
	}
	score := loadSmoothing*epoch + (1-loadSmoothing)*st.score
	return score, loadState{score: score, lastRequests: reqs, lastCostNs: costNs}
}

// observeLocked sums one workload's cumulative request count and cost
// across its live holders: per-replica telemetry hubs when the tier
// records them (decision count and total decision time), the registry's
// request and validation-time counters otherwise. Caller holds pl.mu.
func (pl *Plane) observeLocked(w string) (reqs, costNs uint64) {
	for _, rep := range pl.holders(w) {
		if rep.hub != nil {
			c, s := rep.hub.Load(w)
			reqs += c
			costNs += s
		} else if e, ok := rep.reg.Entry(w); ok {
			m := e.Metrics()
			reqs += m.Requests
			costNs += uint64(m.ValidationTime)
		}
	}
	return reqs, costNs
}

// loadScoresLocked computes every workload's load score for this epoch.
// advance=true commits the EWMA state (a rebalance epoch); advance=false
// is a read-only preview for metrics. Caller holds pl.mu.
func (pl *Plane) loadScoresLocked(advance bool) map[string]float64 {
	out := make(map[string]float64, len(pl.workloads))
	for w := range pl.workloads {
		reqs, costNs := pl.observeLocked(w)
		score, next := epochScore(pl.loads[w], reqs, costNs)
		out[w] = score
		if advance {
			pl.loads[w] = next
		}
	}
	if advance {
		for w := range pl.loads {
			if _, ok := pl.workloads[w]; !ok {
				delete(pl.loads, w)
			}
		}
	}
	return out
}

// keyLoadsLocked folds workload scores onto their shard keys; broadcast
// workloads have no shard key to place. A workload addressed by several
// keys (namespace plus claimed cluster kinds) contributes its full
// score to each — conservative: any key moving alone must still fit.
// Caller holds pl.mu.
func (pl *Plane) keyLoadsLocked(scores map[string]float64) []keyLoad {
	byKey := map[string]float64{}
	for w, ws := range pl.workloads {
		for _, key := range shardKeys(ws.selector) {
			byKey[key] += scores[w]
		}
	}
	out := make([]keyLoad, 0, len(byKey))
	for k, s := range byKey {
		out = append(out, keyLoad{key: k, score: s})
	}
	return out
}

// --- the planner -------------------------------------------------------

type keyLoad struct {
	key   string
	score float64
}

type planMove struct {
	key      string
	from, to int
	score    float64
}

type weightedPlan struct {
	assign          map[string]int
	moves           []planMove
	imbalanceBefore float64
	imbalanceAfter  float64
}

// planWeighted computes the weighted shard assignment: every key seeds
// at its current home (the prior assignment while its replica is still
// active, the ring otherwise), then the largest movable key migrates
// from the most- to the least-loaded replica while the maximum exceeds
// mean*(1+threshold) — greedy LPT with hysteresis, so a balanced tier
// plans zero moves. Deterministic given its inputs: keys are processed
// in descending score order (ties by key), replica ties break on the
// lowest index.
func planWeighted(keys []keyLoad, active []int, current map[string]int, rg *ring, threshold float64) weightedPlan {
	plan := weightedPlan{assign: make(map[string]int, len(keys))}
	if len(active) == 0 {
		return plan
	}
	sorted := append([]keyLoad(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].score != sorted[j].score {
			return sorted[i].score > sorted[j].score
		}
		return sorted[i].key < sorted[j].key
	})

	activeSet := make(map[int]bool, len(active))
	loads := make(map[int]float64, len(active))
	for _, idx := range active {
		activeSet[idx] = true
		loads[idx] = 0
	}
	seed := make(map[string]int, len(sorted))
	var total float64
	for _, kl := range sorted {
		home, ok := current[kl.key]
		if !ok || !activeSet[home] {
			home, ok = rg.lookup([]byte(kl.key))
			if !ok {
				home = active[0]
			}
		}
		seed[kl.key] = home
		plan.assign[kl.key] = home
		loads[home] += kl.score
		total += kl.score
	}
	mean := total / float64(len(active))
	plan.imbalanceBefore = imbalanceOf(loads, mean)

	if total > 0 {
		limit := mean * (1 + threshold)
		// Each accepted move strictly lowers max(src, dst), so the loop
		// terminates; the bound is a backstop, not the usual exit.
		for iter := 0; iter < 4*len(sorted)+4; iter++ {
			src, dst := extremes(loads, active)
			if loads[src] <= limit {
				break
			}
			moved := false
			for _, kl := range sorted {
				if kl.score <= 0 || plan.assign[kl.key] != src {
					continue
				}
				if loads[dst]+kl.score < loads[src] {
					plan.assign[kl.key] = dst
					loads[src] -= kl.score
					loads[dst] += kl.score
					moved = true
					break
				}
			}
			if !moved {
				break
			}
		}
	}
	plan.imbalanceAfter = imbalanceOf(loads, mean)

	for _, kl := range sorted {
		if to := plan.assign[kl.key]; to != seed[kl.key] {
			plan.moves = append(plan.moves, planMove{key: kl.key, from: seed[kl.key], to: to, score: kl.score})
		}
	}
	return plan
}

// extremes finds the most- and least-loaded replicas; ties break on the
// lowest index (active is ascending).
func extremes(loads map[int]float64, active []int) (src, dst int) {
	src, dst = active[0], active[0]
	for _, idx := range active[1:] {
		if loads[idx] > loads[src] {
			src = idx
		}
		if loads[idx] < loads[dst] {
			dst = idx
		}
	}
	return src, dst
}

// imbalanceOf is max/mean - 1 over per-replica loads: 0 when perfectly
// even (or when there is no load at all).
func imbalanceOf(loads map[int]float64, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	var max float64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max/mean - 1
}

// --- rebalance ---------------------------------------------------------

// ShardMove describes one shard-key migration within a rebalance.
type ShardMove struct {
	Key   string  `json:"key"`
	From  int     `json:"from"`
	To    int     `json:"to"`
	Score float64 `json:"score"`
	// Workloads lists the workloads the key addresses (installed on the
	// destination before the routing flipped); HandoffEntries counts the
	// cached decisions that travelled with them.
	Workloads      []string `json:"workloads"`
	HandoffEntries int      `json:"handoff_entries"`
}

// RebalanceReport describes one rebalance epoch. Imbalance is
// max/mean - 1 of per-replica load score over the shard keys; After
// equals Before on a hash-placement tier (scores still advance, nothing
// moves).
type RebalanceReport struct {
	Placement       PlacementPolicy `json:"placement"`
	Moves           []ShardMove     `json:"moves"`
	ImbalanceBefore float64         `json:"imbalance_before"`
	ImbalanceAfter  float64         `json:"imbalance_after"`
	HandoffEntries  int             `json:"handoff_entries"`
}

// Rebalance advances the load scores one epoch and, on a weighted-
// placement tier, migrates shard assignments when the load imbalance
// exceeds the hysteresis threshold. A migration is a publish like any
// other: the plan's assignment is adopted as desired state and the tier
// reconciled, so the destination replica is installed at the current
// generation and its decision cache primed from the source BEFORE the
// route table flips, inside a PublishesStarted/Completed window — a
// mid-migration request lands either on the old owner (a live holder,
// kept current by every publish) or on the fully-primed new one, never
// on a replica without the policy.
func (pl *Plane) Rebalance() (RebalanceReport, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.rebalances.Add(1)
	scores := pl.loadScoresLocked(true)
	plan := planWeighted(pl.keyLoadsLocked(scores), pl.activeIndices(), pl.assign, pl.routes.Load().ring, pl.threshold())
	report := RebalanceReport{
		Placement:       pl.placement(),
		ImbalanceBefore: plan.imbalanceBefore,
		ImbalanceAfter:  plan.imbalanceBefore,
	}
	if pl.placement() != PlacementWeighted {
		return report, nil
	}
	report.ImbalanceAfter = plan.imbalanceAfter
	// Adopt the assignment even when nothing moved: keys stick to their
	// current homes across future topology changes instead of following
	// ring churn, which preserves cache locality.
	before := make(map[string][]int, len(pl.workloads))
	for w, ws := range pl.workloads {
		before[w] = ws.owners
	}
	pl.assign = plan.assign
	primed, err := pl.reconcileLocked(pl.workloads, false)

	// The report is the owner diff: a move lists the workloads its key
	// addresses that the destination gained, and the cached decisions
	// that travelled with them.
	for _, mv := range plan.moves {
		ms := ShardMove{Key: mv.key, From: mv.from, To: mv.to, Score: mv.score}
		for _, w := range pl.workloadsOnKeyLocked(mv.key) {
			if slices.Contains(pl.workloads[w].owners, mv.to) && !slices.Contains(before[w], mv.to) {
				ms.Workloads = append(ms.Workloads, w)
				ms.HandoffEntries += primed[w]
			}
		}
		pl.migrations.Add(1)
		report.HandoffEntries += ms.HandoffEntries
		report.Moves = append(report.Moves, ms)
	}
	return report, err
}

// workloadsOnKeyLocked lists the workloads a shard key addresses,
// sorted for deterministic migration order. Caller holds pl.mu.
func (pl *Plane) workloadsOnKeyLocked(key string) []string {
	var out []string
	for w, ws := range pl.workloads {
		if slices.Contains(shardKeys(ws.selector), key) {
			out = append(out, w)
		}
	}
	slices.Sort(out)
	return out
}

// handoffLocked primes dst's decision cache for one workload from the
// replica its shard is moving off. Only a live source still serving the
// workload's published generation exports; the registry's import guard
// (policy identity: the exact program the decisions were made by)
// independently drops anything stale, so a failed precondition here
// means a cold start on dst, never a wrong verdict. Returns the number
// of decisions that travelled and landed in dst's shard.
// Caller holds pl.mu.
func (pl *Plane) handoffLocked(from int, dst *replica, w string, ws *workloadState) int {
	if pl.cfg.CacheSize <= 0 {
		return 0
	}
	src := pl.replicas[from]
	if src == dst || ReplicaState(src.state.Load()) == ReplicaDown {
		return 0
	}
	if gen, holds := src.installed[w]; !holds || gen != ws.gen {
		return 0
	}
	snap, err := src.reg.ExportCache(w)
	if err != nil {
		return 0
	}
	n, err := dst.reg.ImportCache(snap)
	if err != nil {
		return 0
	}
	return n
}

// rebalanceLoop drives periodic rebalances until Close.
func (pl *Plane) rebalanceLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			pl.Rebalance()
		case <-pl.rebalanceStop:
			return
		}
	}
}

// Close stops the periodic rebalancer when one is configured. The tier
// holds no other background resources; Close is idempotent and safe on
// a plane without a rebalance interval.
func (pl *Plane) Close() error {
	pl.closeOnce.Do(func() {
		if pl.rebalanceStop != nil {
			close(pl.rebalanceStop)
		}
	})
	return nil
}

// ReplicaWorkloadMetrics reports one workload's registry metrics on one
// specific replica — per-replica observability for migrations (cache
// hits on a migration destination measure how much of the hot set the
// handoff retained). ok is false when the replica index is out of range
// or the replica does not hold the workload.
func (pl *Plane) ReplicaWorkloadMetrics(replicaIndex int, workload string) (registry.Metrics, bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	rep, err := pl.replicaAt(replicaIndex)
	if err != nil {
		return registry.Metrics{}, false
	}
	e, ok := rep.reg.Entry(workload)
	if !ok {
		return registry.Metrics{}, false
	}
	return e.Metrics(), true
}
