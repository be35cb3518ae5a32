package plane

import (
	"repro/internal/proxy"
	"repro/internal/telemetry"
)

// ReplicaMetrics is one replica's rollup.
type ReplicaMetrics struct {
	Index int    `json:"index"`
	State string `json:"state"`
	// Routed counts requests handed to this replica's proxy; Shed and
	// Unavailable count requests refused at the front door on its
	// behalf (429 and 503 respectively).
	Routed      uint64 `json:"routed"`
	Shed        uint64 `json:"shed"`
	Unavailable uint64 `json:"unavailable"`
	// Workloads is the number of policies currently installed.
	Workloads int `json:"workloads"`
	// AssignedShards and LoadScore describe placement: how many shard
	// keys currently route to this replica and the EWMA load score they
	// carry (pinned shards are placed by fiat and not scored).
	AssignedShards int           `json:"assigned_shards"`
	LoadScore      float64       `json:"load_score"`
	Proxy          proxy.Metrics `json:"proxy"`
}

// TierMetrics is the tier-level rollup: front-door accounting,
// per-replica detail, and the summed proxy counters.
type TierMetrics struct {
	Requests    uint64 `json:"requests"`
	Shed        uint64 `json:"shed"`
	Unavailable uint64 `json:"unavailable"`
	// PublishesStarted / PublishesCompleted bound the mixed-generation
	// window: equal values mean every replica serves the generation its
	// last completed publish installed.
	PublishesStarted   uint64 `json:"publishes_started"`
	PublishesCompleted uint64 `json:"publishes_completed"`
	Resyncs            uint64 `json:"resyncs"`
	// Generations maps each workload to the plane generation of its
	// last completed publish.
	Generations map[string]uint64 `json:"generations"`
	// Placement names the shard placement policy; Rebalances counts
	// rebalance epochs, ShardMigrations the shard keys they moved, and
	// HandoffEntries the cached decisions that travelled with migrating
	// shards (rebalances and drains both).
	Placement       string           `json:"placement"`
	Rebalances      uint64           `json:"rebalances"`
	ShardMigrations uint64           `json:"shard_migrations"`
	HandoffEntries  uint64           `json:"handoff_entries"`
	Replicas        []ReplicaMetrics `json:"replicas"`
	// Proxy sums the per-replica proxy counters.
	Proxy proxy.Metrics `json:"proxy"`
}

// Metrics snapshots the tier.
func (pl *Plane) Metrics() TierMetrics {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	tm := TierMetrics{
		Requests:           pl.requests.Load(),
		Shed:               pl.shedTotal.Load(),
		Unavailable:        pl.unavailableTotal.Load(),
		PublishesStarted:   pl.publishesStarted.Load(),
		PublishesCompleted: pl.publishesCompleted.Load(),
		Resyncs:            pl.resyncs.Load(),
		Generations:        make(map[string]uint64, len(pl.workloads)),
		Placement:          string(pl.placement()),
		Rebalances:         pl.rebalances.Load(),
		ShardMigrations:    pl.migrations.Load(),
		HandoffEntries:     pl.handoffTotal.Load(),
	}
	for w, ws := range pl.workloads {
		tm.Generations[w] = ws.gen
	}
	// Per-replica placement detail: fold a read-only score preview onto
	// shard keys and resolve each key against the live route table.
	scores := pl.loadScoresLocked(false)
	rt := pl.routes.Load()
	shardsBy := make(map[int]int, len(pl.replicas))
	loadBy := make(map[int]float64, len(pl.replicas))
	for _, kl := range pl.keyLoadsLocked(scores) {
		idx, ok := rt.owner(kl.key)
		if !ok {
			continue
		}
		shardsBy[idx]++
		loadBy[idx] += kl.score
	}
	for _, rep := range pl.replicas {
		rm := ReplicaMetrics{
			Index:          rep.index,
			State:          ReplicaState(rep.state.Load()).String(),
			Routed:         rep.routed.Load(),
			Shed:           rep.shed.Load(),
			Unavailable:    rep.unavailable.Load(),
			Workloads:      len(rep.installed),
			AssignedShards: shardsBy[rep.index],
			LoadScore:      loadBy[rep.index],
		}
		if px := rep.proxy.Load(); px != nil {
			rm.Proxy = px.Metrics()
		}
		tm.Replicas = append(tm.Replicas, rm)
		tm.Proxy.Requests += rm.Proxy.Requests
		tm.Proxy.Inspected += rm.Proxy.Inspected
		tm.Proxy.Denied += rm.Proxy.Denied
		tm.Proxy.Shadowed += rm.Proxy.Shadowed
		tm.Proxy.RawAllowed += rm.Proxy.RawAllowed
		tm.Proxy.RawDenied += rm.Proxy.RawDenied
		tm.Proxy.ValidationTime += rm.Proxy.ValidationTime
	}
	return tm
}

// Telemetry merges the front-door hub and every replica hub into one
// tier snapshot: each (workload, verdict, path) cell's counters and
// histogram buckets are the sums across replicas (telemetry.Merge), so
// tier-level quantiles derive from the same bucket math as a single
// proxy's. Zero-valued when the tier runs without telemetry.
func (pl *Plane) Telemetry() telemetry.Snapshot {
	if pl.front == nil {
		return telemetry.Snapshot{}
	}
	snaps := make([]telemetry.Snapshot, 0, len(pl.replicas)+1)
	snaps = append(snaps, pl.front.Snapshot())
	for _, rep := range pl.replicas {
		snaps = append(snaps, rep.hub.Snapshot())
	}
	return telemetry.Merge(snaps...)
}

// ReplicaTelemetry returns replica i's telemetry hub (nil when out of
// range or when the tier runs without telemetry) — per-replica
// snapshots let an operator see which replica a tier-level anomaly
// lives on.
func (pl *Plane) ReplicaTelemetry(i int) *telemetry.Hub {
	if i < 0 || i >= len(pl.replicas) {
		return nil
	}
	return pl.replicas[i].hub
}

// Traces returns the sampled decision traces across the tier: every
// replica's ring followed by the front door's routing records.
func (pl *Plane) Traces() []telemetry.Trace {
	var out []telemetry.Trace
	for _, rep := range pl.replicas {
		out = append(out, rep.hub.Traces()...)
	}
	if pl.front != nil {
		out = append(out, pl.front.Traces()...)
	}
	return out
}
