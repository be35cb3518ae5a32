package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// record stands in for the proxy's ViolationRecord with the same layout
// (144 B), so BenchmarkBoundedLogAppendParallel compares with the
// benchmark of the proxy's log before it became a Ring.
type record struct {
	Time                                           time.Time
	Workload, User, Method, RequestURI, Kind, Name string
	Violations                                     []string
}

// maxRecords is the proxy's bound on its denial records.
const maxRecords = 1024

func TestBoundedLogSequential(t *testing.T) {
	l := NewRing[record](4)
	if len(l.Snapshot()) != 0 {
		t.Fatalf("fresh log not empty")
	}
	for i := 0; i < 3; i++ {
		l.Append(record{Name: fmt.Sprintf("r%d", i)})
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Len after 3 appends = %d", len(snap))
	}
	for i, rec := range snap {
		if want := fmt.Sprintf("r%d", i); rec.Name != want {
			t.Errorf("snapshot[%d] = %q, want %q (oldest first)", i, rec.Name, want)
		}
	}
	// Overflow: newest are kept, oldest dropped.
	for i := 3; i < 10; i++ {
		l.Append(record{Name: fmt.Sprintf("r%d", i)})
	}
	snap = l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Len after overflow = %d, want 4", len(snap))
	}
	for i, rec := range snap {
		if want := fmt.Sprintf("r%d", i+6); rec.Name != want {
			t.Errorf("snapshot[%d] = %q, want %q", i, rec.Name, want)
		}
	}
}

// TestBoundedLogUnwrittenReadsEmpty: a log nobody has appended to — the
// proxy's, until its first denial — answers reads empty without
// allocating, and holds the first record appended.
func TestBoundedLogUnwrittenReadsEmpty(t *testing.T) {
	l := NewRing[record](maxRecords)
	allocs := testing.AllocsPerRun(100, func() {
		if snap := l.Snapshot(); len(snap) != 0 {
			t.Fatalf("Snapshot holds %d records on an unwritten log", len(snap))
		}
	})
	if allocs != 0 {
		t.Errorf("Snapshot allocates %.1f times on an unwritten log, want 0", allocs)
	}
	l.Append(record{Name: "first"})
	if snap := l.Snapshot(); len(snap) != 1 || snap[0].Name != "first" {
		t.Fatalf("after one Append: %+v", snap)
	}
}

// TestBoundedLogParallelAppend hammers one log from many goroutines —
// the proxy's denial-path contention pattern — and requires that after
// quiescing, the log holds exactly its capacity in valid records, all
// of them among the appended set, with per-goroutine ordering
// preserved within the retained window.
func TestBoundedLogParallelAppend(t *testing.T) {
	const (
		capacity   = 64
		goroutines = 16
		perG       = 500
	)
	l := NewRing[record](capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.Append(record{User: fmt.Sprintf("g%d", g), Name: fmt.Sprintf("%d", i)})
			}
		}(g)
	}
	wg.Wait()
	snap := l.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("quiesced snapshot holds %d records, want %d", len(snap), capacity)
	}
	last := map[string]int{}
	for _, rec := range snap {
		if rec.User == "" {
			t.Fatalf("torn/zero record in snapshot: %+v", rec)
		}
		var i int
		if _, err := fmt.Sscanf(rec.Name, "%d", &i); err != nil || i < 0 || i >= perG {
			t.Fatalf("record %q/%q is not from the appended set", rec.User, rec.Name)
		}
		if prev, ok := last[rec.User]; ok && i <= prev {
			t.Errorf("per-goroutine order violated for %s: %d after %d", rec.User, i, prev)
		}
		last[rec.User] = i
	}
}

// TestBoundedLogFirstAppendsRace: goroutines released together make the
// first appends to fresh logs. Every appended record is retained, none
// twice, up to the capacity.
func TestBoundedLogFirstAppendsRace(t *testing.T) {
	const (
		capacity   = 64
		goroutines = 8
		perG       = 4
		rounds     = 200
	)
	for round := 0; round < rounds; round++ {
		l := NewRing[record](capacity)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < perG; i++ {
					l.Append(record{User: fmt.Sprintf("g%d", g), Name: fmt.Sprint(i)})
				}
			}(g)
		}
		close(start)
		wg.Wait()
		snap := l.Snapshot()
		if len(snap) != goroutines*perG {
			t.Fatalf("round %d: %d records retained, want all %d appended",
				round, len(snap), goroutines*perG)
		}
		seen := map[string]bool{}
		for _, rec := range snap {
			id := rec.User + "/" + rec.Name
			if rec.User == "" || seen[id] {
				t.Fatalf("round %d: record %q is zero or retained twice", round, id)
			}
			seen[id] = true
		}
	}
}

func BenchmarkBoundedLogAppendParallel(b *testing.B) {
	l := NewRing[record](maxRecords)
	rec := record{User: "u", Name: "n"}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Append(rec)
		}
	})
}

// BenchmarkHubSampleParallel is the trace-sampling probe every decision
// makes, on every core at once, at the rate the benchmarks run the hub
// (one in 128 traced).
func BenchmarkHubSampleParallel(b *testing.B) {
	h := New(Config{SampleEvery: 128})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Sample().Finish("w", VerdictAllowed, PathRaw, "Pod", "p")
		}
	})
}

// TestRingSnapshotExactWithinWindow: a snapshot returns only records
// appended at the positions of its window, in append order, and skips a
// slot that does not hold its position's record.
func TestRingSnapshotExactWithinWindow(t *testing.T) {
	names := func(recs []record) string {
		var s []string
		for _, rec := range recs {
			s = append(s, rec.Name)
		}
		return strings.Join(s, " ")
	}
	fill := func(r *Ring[record], from, to int) {
		for i := from; i < to; i++ {
			r.Append(record{Name: fmt.Sprintf("r%d", i)})
		}
	}
	// An appender has reserved position 4 (slot 0, still holding r0) and
	// not stored yet: r0 is evicted, not the newest record.
	r := NewRing[record](4)
	fill(r, 0, 4)
	r.cursor.Add(1)
	if got := names(r.Snapshot()); got != "r1 r2 r3" {
		t.Errorf("reserved, unstored slot: snapshot %q, want %q", got, "r1 r2 r3")
	}

	// A writer laps the reader: the reader's window is positions 1-4,
	// and r6 lands in slot 2 after the reader read the cursor.
	r = NewRing[record](4)
	fill(r, 0, 5)
	r.slots[2].Store(&ringSlot[record]{seq: 6, v: record{Name: "r6"}})
	if got := names(r.Snapshot()); got != "r1 r3 r4" {
		t.Errorf("lapping writer: snapshot %q, want %q", got, "r1 r3 r4")
	}

	// An appender reserves position 0 and stalls while r1-r4 are
	// appended (r4 in slot 0); its late store must not evict r4.
	r = NewRing[record](4)
	slow := &ringSlot[record]{seq: r.cursor.Add(1) - 1, v: record{Name: "r0"}}
	fill(r, 1, 5)
	r.store(slow)
	if got := names(r.Snapshot()); got != "r1 r2 r3 r4" {
		t.Errorf("stalled appender: snapshot %q, want %q", got, "r1 r2 r3 r4")
	}
}
