package registry

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/compile"
)

// TestIdleWorkloadRetainsLittle: a registration that has seen no
// traffic costs its entry and its share of the resolve index, not a
// decision cache sized for its bound or violation and shadow logs sized
// for theirs. The 256 workloads share one program, so what is measured
// is the per-workload cost alone. Not parallel: it reads the heap.
func TestIdleWorkloadRetainsLittle(t *testing.T) {
	const (
		workloads = 256
		ceiling   = 8 << 10 // bytes per idle workload
	)
	prog, err := compile.Compile(policy(t, "shared"))
	if err != nil {
		t.Fatal(err)
	}
	reg := New(Config{CacheSize: 1024})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < workloads; i++ {
		if _, err := reg.RegisterProgram(fmt.Sprintf("w%d", i), Selector{Namespace: fmt.Sprintf("ns%d", i)}, prog); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(reg)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / workloads
	t.Logf("%d B retained per idle workload", per)
	if per > ceiling {
		t.Errorf("an idle workload retains %d B, ceiling %d B", per, ceiling)
	}
}
