package proxy

import "sync/atomic"

// maxRecords bounds the proxy's violation log so a hostile client cannot
// grow proxy memory without bound; the newest records are kept.
const maxRecords = 1024

// boundedLog is a fixed-capacity, append-mostly violation log built for
// the request hot path: Append is lock-free (one atomic cursor bump plus
// one atomic slot store), so concurrent request goroutines recording
// denials never serialize on a log mutex. When full, new records
// overwrite the oldest (newest-kept semantics) — denial records are
// attacker-triggerable, so the log must be bounded.
//
// Snapshot is read-mostly diagnostics: under concurrent appends it is a
// best-effort view (a racing append may replace a slot between the
// cursor read and the slot load), exact once writers quiesce. That
// trade is deliberate: audits read logs after the fact, requests write
// them at line rate.
type boundedLog struct {
	ring   []atomic.Pointer[ViolationRecord]
	cursor atomic.Uint64
}

// newLog builds a boundedLog holding up to capacity records.
func newLog(capacity int) *boundedLog {
	return &boundedLog{ring: make([]atomic.Pointer[ViolationRecord], capacity)}
}

// Append records one violation, overwriting the oldest record when the
// log is full. Safe for any number of concurrent appenders.
func (l *boundedLog) Append(rec ViolationRecord) {
	idx := l.cursor.Add(1) - 1
	l.ring[idx%uint64(len(l.ring))].Store(&rec)
}

// Snapshot returns the retained records, oldest first.
func (l *boundedLog) Snapshot() []ViolationRecord {
	cur := l.cursor.Load()
	n := min(cur, uint64(len(l.ring)))
	out := make([]ViolationRecord, 0, n)
	for i := cur - n; i < cur; i++ {
		if p := l.ring[i%uint64(len(l.ring))].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}
