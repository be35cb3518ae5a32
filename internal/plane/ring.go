package plane

import (
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over the plane's active replicas.
// Shard keys (namespace or cluster-scoped kind, see shardKey) hash onto
// the ring and walk clockwise to the first virtual node; each replica
// contributes VirtualNodes points so removing a replica moves only the
// keys it owned, spread roughly evenly across the survivors — the
// "deterministic shard re-assignment on drain" contract. The ring is
// immutable once built: the control plane builds a fresh one under its
// lock and publishes it atomically to the data path.
type ring struct {
	points []ringPoint // sorted by hash
	// members are the replicas on the ring, ascending — the owners of a
	// broadcast workload.
	members []int
}

type ringPoint struct {
	hash    uint64
	replica int
}

// buildRing places vnodes virtual nodes per replica. Replicas are the
// ACTIVE replica indices only — draining and down replicas own nothing.
func buildRing(replicas []int, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = defaultVirtualNodes
	}
	rg := &ring{points: make([]ringPoint, 0, len(replicas)*vnodes), members: replicas}
	for _, idx := range replicas {
		for v := 0; v < vnodes; v++ {
			rg.points = append(rg.points, ringPoint{
				hash:    hashKey(fmt.Appendf(nil, "replica-%d/vnode-%d", idx, v)),
				replica: idx,
			})
		}
	}
	sort.Slice(rg.points, func(i, j int) bool {
		if rg.points[i].hash != rg.points[j].hash {
			return rg.points[i].hash < rg.points[j].hash
		}
		// Identical 64-bit hashes are astronomically unlikely but must
		// still order deterministically across builds.
		return rg.points[i].replica < rg.points[j].replica
	})
	return rg
}

// lookup maps a shard key to its owning replica. ok is false when the
// ring is empty (every replica drained or down).
func (rg *ring) lookup(key []byte) (int, bool) {
	if len(rg.points) == 0 {
		return 0, false
	}
	h := hashKey(key)
	i := sort.Search(len(rg.points), func(i int) bool { return rg.points[i].hash >= h })
	if i == len(rg.points) {
		i = 0 // wrap: clockwise past the highest point lands on the first
	}
	return rg.points[i].replica, true
}

// hashKey hashes a shard key or virtual-node label onto the ring.
// Plain FNV-1a keeps near-identical strings ("…/vnode-17" vs
// "…/vnode-18") in one contiguous hash band, which would degenerate
// the ring into one giant arc per replica; the 64-bit avalanche
// finalizer spreads the bands so virtual nodes actually interleave.
// The FNV-1a loop is hash/fnv's New64a, written out so a key hashes
// without a hasher or a conversion.
func hashKey(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(offset64)
	for _, c := range key {
		x ^= uint64(c)
		x *= prime64
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
