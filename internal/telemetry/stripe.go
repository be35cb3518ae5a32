package telemetry

import _ "unsafe" // for go:linkname

// cacheLine is the padding that keeps two cores' writes off one line.
const cacheLine = 64

// maxStripes is the number of cells a Striped value keeps: a power of
// two, and at least as many as the processors a stripe index is handed
// out to (GOMAXPROCS beyond it shares cells, which stays correct).
const maxStripes = 16

// stripe is the calling goroutine's P (the processor it runs on) mod
// maxStripes. It is a hint, not a lock: the scheduler may move the
// goroutine to another P as soon as it returns, so what a stripe holds
// is written atomically.
func stripe() int {
	p := procPin()
	procUnpin()
	return p & (maxStripes - 1)
}

// procPin and procUnpin are the runtime's per-P pinning, which it keeps
// callable for packages that shard by P (the note on procPin in
// runtime/proc.go, go.dev/issue/67401); sync.Pool finds its per-P cache
// the same way. A stripe token kept in a sync.Pool instead costs a Get
// and a Put: 19 ns a lookup against 3.6 ns for this on one core of an
// Intel Xeon VM, where three lookups a request were about 4 % of a
// re-applied request's CPU.
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// Striped is a value kept once per stripe, for counters that every
// request writes: each core adds to its own cell, on a cache line no
// other core writes, and a reader sums the cells. Sums are exact once
// writers quiesce, like the hub's counters. T's fields must be atomic;
// the zero value is ready to use.
type Striped[T any] struct {
	_     [cacheLine]byte // off the line of whatever precedes it
	cells [maxStripes]stripeCell[T]
}

type stripeCell[T any] struct {
	v T
	_ [cacheLine]byte
}

// Local is the calling P's cell.
func (s *Striped[T]) Local() *T { return &s.cells[stripe()].v }

// Each calls f on every cell, for a reader summing them.
func (s *Striped[T]) Each(f func(*T)) {
	for i := range s.cells {
		f(&s.cells[i].v)
	}
}
