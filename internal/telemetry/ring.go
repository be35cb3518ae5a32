package telemetry

import "sync/atomic"

// Ring is a fixed-capacity, newest-kept record log for the request hot
// path: Append is lock-free (one atomic cursor bump and one atomic slot
// swap) and overwrites the oldest record when the ring is full, so
// attacker-triggered or line-rate records stay bounded.
//
// Snapshot is exact within its window, the newest records below the
// cursor it reads: every record it returns was appended at its position
// there, in append order. A slot still being written, or already taken
// by a lapping appender, is skipped; once appenders quiesce the window
// is whole.
type Ring[T any] struct {
	slots  []atomic.Pointer[ringSlot[T]]
	_      [40]byte // keeps the cursor off the line of the slice header Append reads
	cursor atomic.Uint64
	_      [56]byte
}

// ringSlot is a record boxed with its append position.
type ringSlot[T any] struct {
	seq uint64
	v   T
}

// NewRing builds a Ring holding up to capacity records.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{slots: make([]atomic.Pointer[ringSlot[T]], capacity)}
}

// Append records v, overwriting the oldest record when the ring is
// full. Safe for any number of concurrent appenders.
func (r *Ring[T]) Append(v T) {
	seq := r.cursor.Add(1) - 1
	r.store(&ringSlot[T]{seq: seq, v: v})
}

// store leaves the newest record in s's slot: an appender that stalls
// between reserving its position and storing must not bury the newer
// record of a lapping appender. Without a lap it is one swap.
func (r *Ring[T]) store(s *ringSlot[T]) {
	slot := &r.slots[s.seq%uint64(len(r.slots))]
	for {
		old := slot.Swap(s)
		if old == nil || old.seq < s.seq {
			return
		}
		s = old // a newer record was displaced: put it back
	}
}

// Snapshot returns the retained records, oldest first. It does not
// allocate on a ring nothing has been appended to.
func (r *Ring[T]) Snapshot() []T {
	cur := r.cursor.Load()
	n := min(cur, uint64(len(r.slots)))
	out := make([]T, 0, n)
	for i := cur - n; i < cur; i++ {
		if s := r.slots[i%uint64(len(r.slots))].Load(); s != nil && s.seq == i {
			out = append(out, s.v)
		}
	}
	return out
}
