package registry

import (
	"fmt"
	"sync"
	"testing"
)

func TestBoundedLogSequential(t *testing.T) {
	l := NewBoundedLog(4)
	if l.Len() != 0 || len(l.Snapshot()) != 0 {
		t.Fatalf("fresh log not empty")
	}
	for i := 0; i < 3; i++ {
		l.Append(Record{Name: fmt.Sprintf("r%d", i)})
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
		l.Append(Record{Name: fmt.Sprintf("r%d", i)})
	}
	snap = l.Snapshot()
	if len(snap) != 4 || l.Len() != 4 {
		t.Fatalf("Len after overflow = %d/%d, want 4", len(snap), l.Len())
	}
	for i, rec := range snap {
		if want := fmt.Sprintf("r%d", i+6); rec.Name != want {
			t.Errorf("snapshot[%d] = %q, want %q", i, rec.Name, want)
		}
	}
	l.Reset()
	if l.Len() != 0 || len(l.Snapshot()) != 0 {
		t.Fatalf("log not empty after Reset")
	}
}

func TestBoundedLogDefaultCapacity(t *testing.T) {
	l := NewBoundedLog(0)
	for i := 0; i < MaxRecords+10; i++ {
		l.Append(Record{})
	}
	if l.Len() != MaxRecords {
		t.Fatalf("default-capacity log holds %d, want %d", l.Len(), MaxRecords)
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
	l := NewBoundedLog(capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.Append(Record{User: fmt.Sprintf("g%d", g), Name: fmt.Sprintf("%d", i)})
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

// TestBoundedLogUnwrittenHoldsNoRing: a log nobody has appended to —
// most workloads' shadow logs, the violation log of a workload that
// never denies — answers every read empty and never builds its ring to
// do so.
func TestBoundedLogUnwrittenHoldsNoRing(t *testing.T) {
	l := NewBoundedLog(MaxRecords)
	allocs := testing.AllocsPerRun(100, func() {
		if l.Len() != 0 {
			t.Fatalf("Len = %d on an unwritten log", l.Len())
		}
		if snap := l.Snapshot(); len(snap) != 0 {
			t.Fatalf("Snapshot holds %d records on an unwritten log", len(snap))
		}
		l.Reset()
	})
	if allocs != 0 {
		t.Errorf("Len, Snapshot and Reset allocate %.1f times on an unwritten log, want 0", allocs)
	}
	if l.ring.Load() != nil {
		t.Fatal("reading an unwritten log built its ring")
	}
	l.Append(Record{Name: "first"})
	if l.ring.Load() == nil || l.Len() != 1 {
		t.Fatalf("after one Append: ring %v, Len %d", l.ring.Load() != nil, l.Len())
	}
}

// TestBoundedLogFirstAppendsRace: goroutines released together make the
// first appends to fresh logs, so they race to install the ring. Each
// loser must append into the winner's ring: every appended record is
// retained, none twice, up to the capacity.
func TestBoundedLogFirstAppendsRace(t *testing.T) {
	const (
		capacity   = 64
		goroutines = 8
		perG       = 4
		rounds     = 200
	)
	for round := 0; round < rounds; round++ {
		l := NewBoundedLog(capacity)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < perG; i++ {
					l.Append(Record{User: fmt.Sprintf("g%d", g), Name: fmt.Sprint(i)})
				}
			}(g)
		}
		close(start)
		wg.Wait()
		snap := l.Snapshot()
		if len(snap) != goroutines*perG || l.Len() != goroutines*perG {
			t.Fatalf("round %d: %d records retained (Len %d), want all %d appended",
				round, len(snap), l.Len(), goroutines*perG)
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
	l := NewBoundedLog(MaxRecords)
	rec := Record{User: "u", Name: "n"}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Append(rec)
		}
	})
}
