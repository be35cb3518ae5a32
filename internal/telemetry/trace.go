package telemetry

import (
	"encoding/json"
	"time"
)

// MaxTraceStages bounds the stage timeline one trace record carries;
// the admission pipeline marks at most four stages before the verdict
// (scan, resolve, then raw-match or raw-diagnose, or decode and
// validate).
const MaxTraceStages = 4

// TraceStage is one timed stage of a sampled decision.
type TraceStage struct {
	Name       string `json:"name"`
	DurationNs int64  `json:"duration_ns"`
}

// Trace is one sampled decision record: what was decided, through
// which pipeline, and where the time went — so a slow or denied
// decision can be explained after the fact. Stage semantics on the
// proxy: "scan" is the body tag plus the routing-metadata scan or the
// scan-memo hit that stood in for it (near zero behind a tier's front
// door, which scanned to route), "resolve" is registry resolution,
// "raw-match" covers the decision-cache probe plus the compiled
// program's raw-byte pass for a clean verdict and "raw-diagnose" the
// same for a verdict with violations (a denial, or a shadow-mode
// would-deny), "decode" is body decoding on the fallback path, and
// "validate" is the decoded validation (enforce or shadow) or the
// learn-mode observation.
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

// Sample decides whether this decision is traced: every N-th decision
// recorded on the calling processor's stripe when SampleEvery is N
// (Striped). SampleEvery 1 traces every decision and 0 none. Over n
// decisions, Sampled lies in [⌊n/N⌋ − S, ⌊n/N⌋], S ≤ maxStripes the
// number of stripes that recorded, and a goroutine that stays on one P,
// alone, is traced at exactly every N-th decision. Returns nil (no
// tracing work at all) otherwise. The unsampled cost is one atomic
// increment on a line no other core writes.
func (h *Hub) Sample() *TraceCtx {
	if h == nil || h.sampleEvery == 0 {
		return nil
	}
	if h.sampleCtr.Local().Add(1)%h.sampleEvery != 0 {
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
// onto the hub's trace ring.
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
	t.hub.traces.Append(t.trace)
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
	return h.traces.Snapshot()
}
