// Package telemetry is the runtime observability plane: lock-free,
// allocation-free counters and latency histograms recorded inline on
// the enforcement hot path, a sampled per-decision trace ring, and a
// Prometheus text-format exposition surface.
//
// The design constraint is the same one the decode-free pipeline lives
// under: the allowed fast path admits requests in ~1-2µs with zero
// allocations, and recording a decision must not change that. So the
// hub keeps NO locks on the record path: per-workload state is an
// immutable map published through an atomic pointer (copy-on-write on
// the first decision a workload ever records — a one-time slow path),
// and every cell is striped across cache-line-padded shards indexed by
// the recording core's stripe (Striped), so two cores recording at once
// write two lines. Histograms use fixed power-of-two
// bucket bounds: recording is one subtract, one shift, one bits.Len64
// and three atomic adds, and p50/p90/p99 are derived from the bucket
// counts at scrape time, where allocating is fine.
//
// Scrapes (Snapshot, WriteMetrics) run concurrently with recording and
// never block it; a snapshot is a best-effort sum taken while writers
// run, exact once they quiesce. Sampled traces, like the proxy's
// denial records, are kept in a Ring, which is exact within its window.
package telemetry

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Verdict is the outcome class of one recorded decision. Proxy-level
// decisions use Allowed..Rejected; the plane front door records its
// routing outcomes under Routed..Unavailable.
type Verdict uint8

const (
	// VerdictAllowed is a policy-conforming request forwarded upstream.
	VerdictAllowed Verdict = iota
	// VerdictDenied is a policy violation rejected with 403.
	VerdictDenied
	// VerdictShadowed is a shadow-mode would-deny (forwarded).
	VerdictShadowed
	// VerdictLearned is a learn-mode request fed to the miner.
	VerdictLearned
	// VerdictRejected is a transport-level fail-closed denial
	// (unresolvable, undecodable, unsupported type) — not a policy
	// verdict.
	VerdictRejected
	// VerdictRouted is a front-door request handed to a replica proxy.
	VerdictRouted
	// VerdictShed is a front-door request shed with 429 (backpressure).
	VerdictShed
	// VerdictUnavailable is a front-door request refused with 503 (dead
	// or missing replica).
	VerdictUnavailable

	numVerdicts = int(VerdictUnavailable) + 1
)

// String names the verdict as its metric label value.
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "unknown"
}

var verdictNames = [numVerdicts]string{
	"allowed", "denied", "shadowed", "learned", "rejected",
	"routed", "shed", "unavailable",
}

// Path is the pipeline a decision took: raw (decided straight off the
// wire bytes — streaming scan, cache probe, raw match) or decoded (the
// classic decode + validate path). Front-door records use PathRaw; the
// front door never decodes a body it routes.
type Path uint8

const (
	// PathRaw is the decode-free streaming pipeline.
	PathRaw Path = iota
	// PathDecoded is the classic decode-first pipeline.
	PathDecoded

	numPaths = int(PathDecoded) + 1
)

// String names the path as its metric label value.
func (p Path) String() string {
	if p == PathRaw {
		return "raw"
	}
	return "decoded"
}

// ScanOutcome is how the scan memo answered a request's routing-metadata
// scan (internal/proxy): the front end tags a body and asks the memo
// before it walks the bytes.
type ScanOutcome uint8

const (
	// ScanNone is a request whose body was never scanned.
	ScanNone ScanOutcome = iota
	// ScanMemoHit is a scan the memo answered: the body was not walked.
	ScanMemoHit
	// ScanMemoMiss is a scan that ran and was memoised.
	ScanMemoMiss
	// ScanMemoEvict is a miss whose entry replaced a live one.
	ScanMemoEvict
)

// Histogram bucket layout: power-of-two bounds in nanoseconds, from
// 2^bucketShift up, with the last bucket catching everything larger
// (+Inf). Bucket i counts durations d with bound(i-1) < d <= bound(i),
// bound(i) = 2^(bucketShift+i) ns — so 256ns, 512ns, ... ~4.3s, +Inf.
const (
	bucketShift = 8 // first bound 2^8 ns = 256ns
	// NumBuckets is the fixed bucket count of every histogram,
	// including the +Inf overflow bucket.
	NumBuckets = 26
)

// bucketIndex places a duration: the smallest bucket whose upper bound
// is >= d. Exact powers of two land on their own bound (Prometheus
// `le` semantics are inclusive).
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(d-1) >> bucketShift)
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// BucketBound returns bucket i's inclusive upper bound in nanoseconds,
// or -1 for the +Inf overflow bucket.
func BucketBound(i int) int64 {
	if i >= NumBuckets-1 {
		return -1
	}
	return 1 << (bucketShift + i)
}

// numCells is the fixed (verdict, path) label matrix per workload.
const numCells = numVerdicts * numPaths

func cellIndex(v Verdict, p Path) int { return int(v)*numPaths + int(p) }

// shard is one stripe of a workload's counter/histogram state. The
// leading pad keeps two shards' hot fields off one cache line.
type shard struct {
	_      [8]uint64 // cache-line pad between consecutive shards
	count  [numCells]atomic.Uint64
	sumNs  [numCells]atomic.Uint64
	bucket [numCells][NumBuckets]atomic.Uint64
}

// workloadTel is one workload's sharded recording state; immutable
// once published (the shard contents mutate, the struct does not).
type workloadTel struct {
	name   string
	shards []shard
}

// maxTraces bounds the hub's trace ring; the newest traces are kept.
const maxTraces = 256

// Config configures a Hub.
type Config struct {
	// SampleEvery traces one of every N recorded decisions onto the
	// bounded trace ring (1 traces everything, 0 disables tracing).
	SampleEvery int
	// Shards is the per-workload counter stripe count, rounded up to a
	// power of two (default: GOMAXPROCS rounded up, capped at 16).
	Shards int
}

// Hub is one process's telemetry registry: per-workload sharded
// counters and histograms plus the sampled trace ring. A nil *Hub is
// a valid no-op recorder, so callers gate telemetry on a single nil
// check. All methods are safe for concurrent use.
type Hub struct {
	// The fields every record reads come first, off the lines the
	// record path writes; mu is taken once per workload.
	shards    int
	shardMask uint64
	// workloads is the immutable name -> state map the record path
	// reads; misses take mu and republish a copy (once per workload).
	workloads   atomic.Pointer[map[string]*workloadTel]
	sampleEvery uint64
	traces      *Ring[Trace]
	mu          sync.Mutex

	// sampleCtr is the one counter every decision writes on a shared
	// line: exact every-N-th sampling needs one sequence. It sits on a
	// line of its own.
	_         [cacheLine]byte
	sampleCtr atomic.Uint64
	_         [cacheLine]byte
	sampled   atomic.Uint64
	ctxPool   sync.Pool

	// How the scan memo answered the scans of the requests this hub
	// recorded (RecordScan).
	scans Striped[scanCounts]
}

type scanCounts struct {
	hits, misses, evictions atomic.Uint64
}

// New builds a Hub.
func New(cfg Config) *Hub {
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > 16 {
		shards = 16
	}
	// Round up to a power of two so shard picking is a mask.
	n := 1
	for n < shards {
		n <<= 1
	}
	h := &Hub{
		shards:      n,
		shardMask:   uint64(n - 1),
		sampleEvery: uint64(max(cfg.SampleEvery, 0)),
		traces:      NewRing[Trace](maxTraces),
	}
	h.ctxPool.New = func() any { return new(TraceCtx) }
	empty := map[string]*workloadTel{}
	h.workloads.Store(&empty)
	return h
}

// SampleEvery reports the configured trace sampling rate (0 = off).
func (h *Hub) SampleEvery() int {
	if h == nil {
		return 0
	}
	return int(h.sampleEvery)
}

// workload returns the workload's recording state, creating and
// publishing it on first use (the only locked path; once per workload
// per hub lifetime). The read side is one atomic load and one map
// probe — no locks, no allocations.
func (h *Hub) workload(name string) *workloadTel {
	m := *h.workloads.Load()
	if wt, ok := m[name]; ok {
		return wt
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	m = *h.workloads.Load()
	if wt, ok := m[name]; ok {
		return wt
	}
	wt := &workloadTel{name: name, shards: make([]shard, h.shards)}
	next := make(map[string]*workloadTel, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	next[name] = wt
	h.workloads.Store(&next)
	return wt
}

// RecordDecision records one decision: the (workload, verdict, path)
// counter and its latency histogram. Lock-free and allocation-free
// after the workload's first record; safe from any number of
// goroutines. The shard is the recording core's stripe.
func (h *Hub) RecordDecision(workload string, v Verdict, p Path, d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	wt := h.workload(workload)
	sh := &wt.shards[uint64(stripe())&h.shardMask]
	ci := cellIndex(v, p)
	sh.count[ci].Add(1)
	sh.sumNs[ci].Add(uint64(d))
	sh.bucket[ci][bucketIndex(d)].Add(1)
}

// RecordScan counts how the scan memo answered one request's scan.
// Lock-free and allocation-free; ScanNone and a nil hub record nothing.
func (h *Hub) RecordScan(o ScanOutcome) {
	if h == nil || o == ScanNone {
		return
	}
	c := h.scans.Local()
	switch o {
	case ScanMemoHit:
		c.hits.Add(1)
	case ScanMemoEvict:
		c.evictions.Add(1)
		fallthrough
	case ScanMemoMiss:
		c.misses.Add(1)
	}
}

// Load sums one workload's decision cells — decisions recorded and
// total decision nanoseconds across every (verdict, path) cell —
// without building a snapshot. This is the load-cell read path: the
// plane's weighted placer derives per-workload load scores (request
// share × mean decision cost) from these totals on every rebalance
// tick, so the read is lock-free and allocation-free. A nil hub and an
// unrecorded workload both report zero load.
func (h *Hub) Load(workload string) (count, sumNs uint64) {
	if h == nil {
		return 0, 0
	}
	m := *h.workloads.Load()
	wt, ok := m[workload]
	if !ok {
		return 0, 0
	}
	for i := range wt.shards {
		sh := &wt.shards[i]
		for ci := 0; ci < numCells; ci++ {
			count += sh.count[ci].Load()
			sumNs += sh.sumNs[ci].Load()
		}
	}
	return count, sumNs
}

// --- snapshots ---------------------------------------------------------

// CellSnapshot is the summed state of one (workload, verdict, path)
// cell: decision count, total latency, and per-bucket counts
// (non-cumulative; index i bounds at BucketBound(i)).
type CellSnapshot struct {
	Verdict string   `json:"verdict"`
	Path    string   `json:"path"`
	Count   uint64   `json:"count"`
	SumNs   uint64   `json:"sum_ns"`
	Buckets []uint64 `json:"buckets"`
}

// Quantile derives an upper-bound latency estimate for quantile q
// (0 < q <= 1) from the bucket counts: the bound of the bucket the
// nearest-rank observation ⌈q·N⌉ falls in, so p99 of two decisions is
// the slower one. The +Inf bucket reports the largest finite bound (the
// estimate saturates).
func (c *CellSnapshot) Quantile(q float64) time.Duration {
	if c.Count == 0 {
		return 0
	}
	x := q * float64(c.Count)
	rank := uint64(math.Ceil(x))
	// Float error can lift an exact integer q·N past it (0.07·100 reads
	// 7.000000000000001); such a product keeps its integer rank.
	if r := math.Round(x); r < x && x-r <= x*1e-12 {
		rank = uint64(r)
	}
	rank = min(max(rank, 1), c.Count)
	var seen uint64
	for i, n := range c.Buckets {
		seen += n
		if seen >= rank {
			if b := BucketBound(i); b >= 0 {
				return time.Duration(b)
			}
			break
		}
	}
	return time.Duration(BucketBound(NumBuckets - 2))
}

// WorkloadSnapshot is one workload's non-empty cells, ordered by
// (verdict, path).
type WorkloadSnapshot struct {
	Workload string         `json:"workload"`
	Cells    []CellSnapshot `json:"cells"`
}

// Cell returns the (verdict, path) cell, or nil.
func (w *WorkloadSnapshot) Cell(verdict, path string) *CellSnapshot {
	for i := range w.Cells {
		if w.Cells[i].Verdict == verdict && w.Cells[i].Path == path {
			return &w.Cells[i]
		}
	}
	return nil
}

// Snapshot is a point-in-time sum of a hub's (or a merged tier's)
// counters, ordered by workload name — the exposition and /varz input.
type Snapshot struct {
	SampleEvery int                `json:"sample_every,omitempty"`
	Sampled     uint64             `json:"sampled,omitempty"`
	ScanMemo    ScanMemoSnapshot   `json:"scan_memo"`
	Workloads   []WorkloadSnapshot `json:"workloads"`
}

// ScanMemoSnapshot counts the scans of the requests a hub recorded:
// answered by the scan memo (Hits) or run and memoised (Misses), and the
// misses whose entry replaced a live one (Evictions) — the sign of a
// working set larger than the memo.
type ScanMemoSnapshot struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Workload returns the named workload's snapshot, or nil.
func (s *Snapshot) Workload(name string) *WorkloadSnapshot {
	for i := range s.Workloads {
		if s.Workloads[i].Workload == name {
			return &s.Workloads[i]
		}
	}
	return nil
}

// Decisions sums every cell's count — total recorded decisions.
func (s *Snapshot) Decisions() uint64 {
	var n uint64
	for i := range s.Workloads {
		for j := range s.Workloads[i].Cells {
			n += s.Workloads[i].Cells[j].Count
		}
	}
	return n
}

// Snapshot sums the sharded counters into an exposition-ready view.
// Concurrent-safe against recording; best-effort while writers run.
func (h *Hub) Snapshot() Snapshot {
	if h == nil {
		return Snapshot{}
	}
	m := *h.workloads.Load()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	snap := Snapshot{
		SampleEvery: int(h.sampleEvery),
		Sampled:     h.sampled.Load(),
		Workloads:   make([]WorkloadSnapshot, 0, len(names)),
	}
	h.scans.Each(func(c *scanCounts) {
		snap.ScanMemo.Hits += c.hits.Load()
		snap.ScanMemo.Misses += c.misses.Load()
		snap.ScanMemo.Evictions += c.evictions.Load()
	})
	for _, name := range names {
		wt := m[name]
		ws := WorkloadSnapshot{Workload: name}
		for v := 0; v < numVerdicts; v++ {
			for p := 0; p < numPaths; p++ {
				ci := cellIndex(Verdict(v), Path(p))
				cell := CellSnapshot{
					Verdict: Verdict(v).String(),
					Path:    Path(p).String(),
					Buckets: make([]uint64, NumBuckets),
				}
				for si := range wt.shards {
					sh := &wt.shards[si]
					cell.Count += sh.count[ci].Load()
					cell.SumNs += sh.sumNs[ci].Load()
					for b := 0; b < NumBuckets; b++ {
						cell.Buckets[b] += sh.bucket[ci][b].Load()
					}
				}
				if cell.Count > 0 {
					ws.Cells = append(ws.Cells, cell)
				}
			}
		}
		if len(ws.Cells) > 0 {
			snap.Workloads = append(snap.Workloads, ws)
		}
	}
	return snap
}

// Merge sums snapshots cell-by-cell — the plane rollup: the merged
// tier histogram of a (workload, verdict, path) cell equals the sum of
// the per-replica histograms. Nil-safe for empty inputs.
func Merge(snaps ...Snapshot) Snapshot {
	type key struct{ workload, verdict, path string }
	cells := map[key]*CellSnapshot{}
	var names []string
	seen := map[string]bool{}
	var out Snapshot
	for _, s := range snaps {
		if s.SampleEvery > 0 && (out.SampleEvery == 0 || s.SampleEvery < out.SampleEvery) {
			out.SampleEvery = s.SampleEvery
		}
		out.Sampled += s.Sampled
		out.ScanMemo.Hits += s.ScanMemo.Hits
		out.ScanMemo.Misses += s.ScanMemo.Misses
		out.ScanMemo.Evictions += s.ScanMemo.Evictions
		for i := range s.Workloads {
			ws := &s.Workloads[i]
			if !seen[ws.Workload] {
				seen[ws.Workload] = true
				names = append(names, ws.Workload)
			}
			for j := range ws.Cells {
				c := &ws.Cells[j]
				k := key{ws.Workload, c.Verdict, c.Path}
				dst, ok := cells[k]
				if !ok {
					dst = &CellSnapshot{Verdict: c.Verdict, Path: c.Path,
						Buckets: make([]uint64, NumBuckets)}
					cells[k] = dst
				}
				dst.Count += c.Count
				dst.SumNs += c.SumNs
				for b := 0; b < len(c.Buckets) && b < NumBuckets; b++ {
					dst.Buckets[b] += c.Buckets[b]
				}
			}
		}
	}
	sort.Strings(names)
	for _, name := range names {
		ws := WorkloadSnapshot{Workload: name}
		for v := 0; v < numVerdicts; v++ {
			for p := 0; p < numPaths; p++ {
				k := key{name, Verdict(v).String(), Path(p).String()}
				if c, ok := cells[k]; ok {
					ws.Cells = append(ws.Cells, *c)
				}
			}
		}
		out.Workloads = append(out.Workloads, ws)
	}
	return out
}
