package registry

import "sync/atomic"

// BoundedLog is a fixed-capacity, append-mostly violation log built for
// the request hot path: Append is lock-free (one atomic cursor bump plus
// one atomic slot store), so concurrent request goroutines recording
// denials never serialize on a log mutex the way the previous
// mutex-guarded slice forced them to. The capacity is set at
// construction and the ring is allocated on first Append, so a log
// nobody writes to — the violation log of a workload that never denies,
// the shadow log of one never in shadow mode — costs its header and
// nothing more; when full, new records overwrite the oldest
// (newest-kept semantics, like AppendBounded) — denial records are
// attacker-triggerable, so every log must be bounded.
//
// Snapshot is read-mostly diagnostics: under concurrent appends it is a
// best-effort view (a racing append may replace a slot between the
// cursor read and the slot load), exact once writers quiesce. That
// trade is deliberate: audits read logs after the fact, requests write
// them at line rate.
type BoundedLog struct {
	capacity int
	// ring is nil until the first Append installs it.
	ring   atomic.Pointer[[]atomic.Pointer[Record]]
	cursor atomic.Uint64
}

// NewBoundedLog builds a log holding up to capacity records
// (MaxRecords when capacity <= 0).
func NewBoundedLog(capacity int) *BoundedLog {
	if capacity <= 0 {
		capacity = MaxRecords
	}
	return &BoundedLog{capacity: capacity}
}

// slots returns the ring, installing it on first use. Appenders racing
// to install it all end up on the one that won the CompareAndSwap.
func (l *BoundedLog) slots() []atomic.Pointer[Record] {
	if r := l.ring.Load(); r != nil {
		return *r
	}
	fresh := make([]atomic.Pointer[Record], l.capacity)
	if l.ring.CompareAndSwap(nil, &fresh) {
		return fresh
	}
	return *l.ring.Load()
}

// Append records one violation, overwriting the oldest record when the
// log is full. Safe for any number of concurrent appenders.
func (l *BoundedLog) Append(rec Record) {
	slots := l.slots()
	idx := l.cursor.Add(1) - 1
	slots[idx%uint64(len(slots))].Store(&rec)
}

// Len reports how many records the log currently holds.
func (l *BoundedLog) Len() int {
	return int(min(l.cursor.Load(), uint64(l.capacity)))
}

// Snapshot returns the retained records, oldest first.
func (l *BoundedLog) Snapshot() []Record {
	r := l.ring.Load()
	if r == nil {
		return []Record{}
	}
	slots := *r
	cur := l.cursor.Load()
	n := min(cur, uint64(len(slots)))
	out := make([]Record, 0, n)
	for i := cur - n; i < cur; i++ {
		if p := slots[i%uint64(len(slots))].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// Reset clears the log, keeping its ring if it has one. Intended for
// quiesced maintenance (benchmarks, experiment harnesses); appends
// racing a Reset may or may not survive.
func (l *BoundedLog) Reset() {
	if r := l.ring.Load(); r != nil {
		for i := range *r {
			(*r)[i].Store(nil)
		}
	}
	l.cursor.Store(0)
}
