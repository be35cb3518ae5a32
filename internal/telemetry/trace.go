package telemetry

import (
	"encoding/json"
	"sync/atomic"
	"time"
)

// MaxTraceStages bounds the stage timeline one trace record carries;
// the admission pipeline marks at most four stages before the verdict
// (scan, resolve, then raw-match, or decode and validate).
const MaxTraceStages = 4

// TraceStage is one timed stage of a sampled decision.
type TraceStage struct {
	Name       string `json:"name"`
	DurationNs int64  `json:"duration_ns"`
}

// Trace is one sampled decision record: what was decided, through
// which pipeline, and where the time went — so a slow or denied
// decision can be explained after the fact. Stage semantics on the
// proxy: "scan" is the body hash plus the routing-metadata scan or the
// scan-memo hit that stood in for it (near zero behind a tier's front
// door, which scanned to route), "resolve" is registry resolution,
// "raw-match" covers the decision-cache probe plus the compiled
// program's raw-byte pass, "decode" is body decoding on the fallback
// path, and "validate" is the decoded validation (enforce, shadow, or
// learn observation).
type Trace struct {
	Time     time.Time `json:"time"`
	Workload string    `json:"workload"`
	Verdict  string    `json:"verdict"`
	Path     string    `json:"path"`
	Kind     string    `json:"kind,omitempty"`
	Name     string    `json:"name,omitempty"`
	TotalNs  int64     `json:"total_ns"`

	Stages    [MaxTraceStages]TraceStage `json:"-"`
	NumStages int                        `json:"-"`
}

// StageList returns the recorded stages (for JSON and rendering).
func (t *Trace) StageList() []TraceStage { return t.Stages[:t.NumStages] }

// MarshalJSON emits the fixed stage array as a "stages" list trimmed
// to the recorded count.
func (t Trace) MarshalJSON() ([]byte, error) {
	type bare Trace // drops the method, not the fields
	return json.Marshal(struct {
		bare
		Stages []TraceStage `json:"stages"`
	}{bare(t), t.StageList()})
}

// TraceCtx is an in-flight sampled decision. Obtain one from
// Hub.Sample (nil when the decision is not sampled — the common case,
// one atomic add), mark stages as the pipeline advances, and hand it
// back with Finish. Contexts are pooled; a TraceCtx must not be used
// after Finish or Discard.
type TraceCtx struct {
	hub   *Hub
	trace Trace
	start time.Time
	last  time.Time
}

// Sample decides whether this decision is traced: every N-th recorded
// decision when SampleEvery is N. Returns nil (no tracing work at
// all) otherwise. The unsampled cost is one atomic increment.
func (h *Hub) Sample() *TraceCtx {
	if h == nil || h.sampleEvery == 0 {
		return nil
	}
	if h.sampleCtr.Add(1)%h.sampleEvery != 0 {
		return nil
	}
	t := h.ctxPool.Get().(*TraceCtx)
	t.hub = h
	t.trace = Trace{Time: time.Now()}
	t.start = t.trace.Time
	t.last = t.start
	return t
}

// Stage marks the end of the named pipeline stage, charging it the
// time elapsed since the previous mark (or since Sample). Extra
// stages beyond MaxTraceStages are dropped, not reallocated.
func (t *TraceCtx) Stage(name string) {
	if t == nil {
		return
	}
	now := time.Now()
	if t.trace.NumStages < MaxTraceStages {
		t.trace.Stages[t.trace.NumStages] = TraceStage{
			Name:       name,
			DurationNs: now.Sub(t.last).Nanoseconds(),
		}
		t.trace.NumStages++
	}
	t.last = now
}

// Finish completes the trace with its decision labels and pushes it
// onto the hub's bounded ring.
func (t *TraceCtx) Finish(workload string, v Verdict, p Path, kind, name string) {
	if t == nil {
		return
	}
	t.trace.Workload = workload
	t.trace.Verdict = v.String()
	t.trace.Path = p.String()
	t.trace.Kind = kind
	t.trace.Name = name
	t.trace.TotalNs = time.Since(t.start).Nanoseconds()
	t.hub.ring.append(t.trace)
	t.hub.sampled.Add(1)
	t.release()
}

// Discard abandons an in-flight trace (the request turned out not to
// be a decision) without recording it.
func (t *TraceCtx) Discard() {
	if t != nil {
		t.release()
	}
}

func (t *TraceCtx) release() {
	hub := t.hub
	t.hub = nil
	hub.ctxPool.Put(t)
}

// Traces snapshots the retained trace records, oldest first.
func (h *Hub) Traces() []Trace {
	if h == nil {
		return nil
	}
	return h.ring.snapshot()
}

// traceRing is a fixed-capacity lock-free ring of sampled traces,
// newest-kept — the BoundedLog discipline applied to trace records.
type traceRing struct {
	slots  []atomic.Pointer[Trace]
	cursor atomic.Uint64
}

func newTraceRing(capacity int) *traceRing {
	return &traceRing{slots: make([]atomic.Pointer[Trace], capacity)}
}

func (r *traceRing) append(t Trace) {
	idx := r.cursor.Add(1) - 1
	r.slots[idx%uint64(len(r.slots))].Store(&t)
}

func (r *traceRing) snapshot() []Trace {
	cur := r.cursor.Load()
	n := cur
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	out := make([]Trace, 0, n)
	for i := cur - n; i < cur; i++ {
		if p := r.slots[i%uint64(len(r.slots))].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}
