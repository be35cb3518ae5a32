// Rollout lifecycle: per-workload enforcement modes.
//
// A policy mined from traffic (internal/learn) cannot be trusted with
// default-deny on day one — the safe path is learn → shadow → enforce.
// The registry models that lifecycle per workload:
//
//   - ModeLearn: the entry has no trusted policy yet. Inspected requests
//     are handed to the entry's Observer (the policy miner) and forwarded
//     without validation.
//   - ModeShadow: a candidate policy is installed and compiled. Every
//     inspected request is validated, but a would-deny verdict is only
//     *recorded* (cumulative counters, a per-generation sliding window,
//     and a bounded record log) — the request is forwarded regardless.
//   - ModeEnforce: the normal KubeFence behavior; violations deny.
//
// Promotion shadow → enforce is generation-pinned: Promote(workload, gen)
// succeeds only if gen is still the entry's current policy generation at
// the moment of promotion, serialized against Swap, so a workload can
// never start enforcing a policy generation whose shadow window it did
// not finish. Demote drops an enforcing workload back to shadow when its
// live denial rate spikes (the rollout controller's false-positive
// brake).
package registry

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/object"
	"repro/internal/validator"
)

// Mode is a workload's enforcement mode. The zero value is ModeEnforce,
// so entries registered through the classic Register path behave exactly
// as before the lifecycle existed.
type Mode int32

// The rollout lifecycle modes.
const (
	// ModeEnforce validates and denies violating requests (default).
	ModeEnforce Mode = iota
	// ModeShadow validates and records would-deny verdicts, but forwards.
	ModeShadow
	// ModeLearn feeds inspected requests to the entry's Observer and
	// forwards without validation.
	ModeLearn
)

// String names the mode for logs and JSON.
func (m Mode) String() string {
	switch m {
	case ModeEnforce:
		return "enforce"
	case ModeShadow:
		return "shadow"
	case ModeLearn:
		return "learn"
	default:
		return fmt.Sprintf("Mode(%d)", int32(m))
	}
}

// ParseMode parses a mode name ("learn", "shadow", "enforce").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "enforce":
		return ModeEnforce, nil
	case "shadow":
		return ModeShadow, nil
	case "learn":
		return ModeLearn, nil
	default:
		return 0, fmt.Errorf("registry: unknown mode %q (learn, shadow, or enforce)", s)
	}
}

// Observer receives the objects of inspected requests while a workload
// is in ModeLearn (and, at the rollout controller's discretion, while
// shadowing). The policy miner (internal/learn) implements it.
type Observer interface {
	Observe(o object.Object)
}

// DefaultShadowWindow is the sliding-window size used when
// Config.ShadowWindow is zero.
const DefaultShadowWindow = 512

// shadowWindow tracks would-deny verdicts for ONE policy generation: a
// bounded ring of the most recent verdicts plus per-generation totals.
// Observing a verdict for a different generation resets the window — a
// swapped candidate must earn its own clean window; verdicts recorded
// against the previous candidate say nothing about the new one.
type shadowWindow struct {
	mu       sync.Mutex
	capacity int

	gen         uint64
	verdicts    []bool // ring buffer, true = would-deny
	next        int
	filled      int
	denied      int // denials currently inside the ring
	genRequests uint64
	genDenied   uint64
}

func newShadowWindow(capacity int) *shadowWindow {
	if capacity <= 0 {
		capacity = DefaultShadowWindow
	}
	return &shadowWindow{capacity: capacity}
}

// record folds one shadow verdict, made under the given policy
// generation, into the window. Generations are registry-monotonic: a
// NEWER generation resets the window (a swapped candidate must earn its
// own clean window), while a verdict from an OLDER generation — an
// in-flight request that loaded its policy snapshot just before a
// concurrent swap — is dropped, not allowed to wipe the verdicts the
// current generation has already accumulated.
func (w *shadowWindow) record(gen uint64, deny bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if gen < w.gen {
		return
	}
	if gen > w.gen {
		w.gen = gen
		w.verdicts = nil
		w.next, w.filled, w.denied = 0, 0, 0
		w.genRequests, w.genDenied = 0, 0
	}
	if w.verdicts == nil {
		w.verdicts = make([]bool, w.capacity)
	}
	if w.filled == len(w.verdicts) {
		if w.verdicts[w.next] {
			w.denied--
		}
	} else {
		w.filled++
	}
	w.verdicts[w.next] = deny
	if deny {
		w.denied++
	}
	w.next = (w.next + 1) % len(w.verdicts)
	w.genRequests++
	if deny {
		w.genDenied++
	}
}

// ShadowStats is a snapshot of an entry's shadow verdict state.
type ShadowStats struct {
	// Generation is the policy generation the per-generation fields
	// describe; compare against Entry.Generation() before trusting them.
	Generation uint64 `json:"generation"`
	// GenRequests / GenDenied count shadow verdicts made under
	// Generation since it was published.
	GenRequests uint64 `json:"gen_requests"`
	GenDenied   uint64 `json:"gen_denied"`
	// WindowSize / WindowDenied describe the sliding window of the most
	// recent verdicts under Generation.
	WindowSize   int `json:"window_size"`
	WindowDenied int `json:"window_denied"`
	// Requests / Denied are cumulative across every generation the
	// workload ever shadowed; they survive Swap.
	Requests uint64 `json:"requests"`
	Denied   uint64 `json:"denied"`
}

// WindowDenyRate is the would-deny fraction of the sliding window
// (0 when the window is empty).
func (s ShadowStats) WindowDenyRate() float64 {
	if s.WindowSize == 0 {
		return 0
	}
	return float64(s.WindowDenied) / float64(s.WindowSize)
}

func (w *shadowWindow) snapshot() ShadowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return ShadowStats{
		Generation:   w.gen,
		GenRequests:  w.genRequests,
		GenDenied:    w.genDenied,
		WindowSize:   w.filled,
		WindowDenied: w.denied,
	}
}

// Mode returns the entry's current enforcement mode.
func (e *Entry) Mode() Mode { return Mode(e.mode.Load()) }

// Observer returns the learn-mode observer, nil when none is attached.
func (e *Entry) Observer() Observer {
	if o := e.observer.Load(); o != nil {
		return *o
	}
	return nil
}

// ObserveLearn feeds one inspected request object to the entry's
// observer (learn mode). It counts toward the entry's request metric but
// performs no validation.
func (e *Entry) ObserveLearn(o object.Object) {
	e.requests.Add(1)
	e.learned.Add(1)
	if obs := e.Observer(); obs != nil {
		obs.Observe(o)
	}
}

// Learned counts the requests observed in learn mode.
func (e *Entry) Learned() uint64 { return e.learned.Load() }

// ShadowStats snapshots the entry's shadow verdict state.
func (e *Entry) ShadowStats() ShadowStats {
	// The window first: a verdict bumps the cumulative counters before
	// it enters the window, so counters read after the window cover it.
	st := e.shadow.snapshot()
	st.Requests, st.Denied = e.shadowReqs.Load(), e.shadowDenied.Load()
	return st
}

// RecordShadowViolation appends a would-deny record to the entry's
// bounded shadow log. Unlike RecordViolation it does NOT bump the denied
// metric: a shadow verdict denies nothing.
func (e *Entry) RecordShadowViolation(rec Record) {
	rec.Workload = e.workload
	e.shadowLog.Append(rec)
}

// ShadowViolations returns a snapshot of the entry's would-deny records.
func (e *Entry) ShadowViolations() []Record {
	return e.shadowLog.Snapshot()
}

// RegisterLearning adds a workload with NO policy, in ModeLearn: the
// enforcement point forwards its traffic while feeding every inspected
// object to the observer (the policy miner). The entry fails closed if
// it is switched to enforce (or shadow) before a candidate policy is
// swapped in: a nil program validates to a deny verdict.
func (r *Registry) RegisterLearning(workload string, sel Selector, obs Observer) (*Entry, error) {
	e, err := r.register(workload, sel, nil, nil)
	if err != nil {
		return nil, err
	}
	e.mode.Store(int32(ModeLearn))
	if obs != nil {
		e.observer.Store(&obs)
	}
	return e, nil
}

// SetObserver attaches (or replaces) the learn-mode observer of a
// registered workload.
func (r *Registry) SetObserver(workload string, obs Observer) error {
	e, ok := r.Entry(workload)
	if !ok {
		return errUnknown(workload)
	}
	if obs == nil {
		e.observer.Store(nil)
	} else {
		e.observer.Store(&obs)
	}
	return nil
}

// SetMode sets a workload's enforcement mode unconditionally — the
// operator override. Rollout automation promotes with Promote instead,
// which pins the policy generation it gated.
func (r *Registry) SetMode(workload string, m Mode) error {
	e, ok := r.Entry(workload)
	if !ok {
		return errUnknown(workload)
	}
	e.modeMu.Lock()
	defer e.modeMu.Unlock()
	e.mode.Store(int32(m))
	return nil
}

// Mode returns a workload's current enforcement mode.
func (r *Registry) Mode(workload string) (Mode, error) {
	e, ok := r.Entry(workload)
	if !ok {
		return 0, errUnknown(workload)
	}
	return e.Mode(), nil
}

// Modes returns the enforcement mode of every registered workload.
func (r *Registry) Modes() map[string]Mode {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]Mode, len(r.entries))
	for w, e := range r.entries {
		out[w] = e.Mode()
	}
	return out
}

// ErrStaleGeneration reports a promotion that lost a race against a
// policy swap: the gated generation is no longer the one that would be
// enforced.
var ErrStaleGeneration = fmt.Errorf("registry: policy generation changed since the shadow gate was evaluated")

// ErrNotShadowing reports a promotion addressed to a workload that is
// not in shadow mode. Promoting an already-enforcing workload is a
// protocol error, not a race: retrying cannot succeed until the
// workload re-enters shadow, so distribution layers treat this (like
// ErrUnknownWorkload) as permanent rather than retryable.
var ErrNotShadowing = fmt.Errorf("registry: workload is not in shadow mode")

// Promote switches a workload from shadow to enforce, but only if gen is
// still the entry's current policy generation. The check and the mode
// store are serialized against Swap (both hold the entry's mode lock),
// so the workload can never enforce a policy generation it did not
// finish shadowing: a candidate swapped in after the gate was evaluated
// must re-earn its own clean shadow window. A workload that is not
// shadowing (already enforcing, or still learning) fails with
// ErrNotShadowing.
func (r *Registry) Promote(workload string, gen uint64) error {
	e, ok := r.Entry(workload)
	if !ok {
		return errUnknown(workload)
	}
	e.modeMu.Lock()
	defer e.modeMu.Unlock()
	if m := Mode(e.mode.Load()); m != ModeShadow {
		return fmt.Errorf("%w (workload %s: mode %s)", ErrNotShadowing, workload, m)
	}
	ver := e.version.Load()
	if ver.gen != gen {
		return fmt.Errorf("%w (workload %s: gated %d, current %d)",
			ErrStaleGeneration, workload, gen, ver.gen)
	}
	if ver.program == nil && ver.policy == nil {
		return fmt.Errorf("registry: workload %s has no policy to enforce", workload)
	}
	e.mode.Store(int32(ModeEnforce))
	return nil
}

// Demote drops an enforcing workload back to shadow — the rollout
// controller's brake when the live denial rate spikes after promotion.
// It reports the mode the workload was in before.
func (r *Registry) Demote(workload string) (Mode, error) {
	e, ok := r.Entry(workload)
	if !ok {
		return 0, errUnknown(workload)
	}
	e.modeMu.Lock()
	defer e.modeMu.Unlock()
	prev := Mode(e.mode.Load())
	e.mode.Store(int32(ModeShadow))
	return prev, nil
}

// ShadowValidate checks an object against the entry's candidate policy
// without enforcing the verdict: the would-deny outcome is folded into
// the entry's cumulative shadow counters and the per-generation sliding
// window. It returns the violations (for the caller's record log) and
// the policy generation the verdict was made under.
func (r *Registry) ShadowValidate(e *Entry, body []byte, obj object.Object) ([]validator.Violation, uint64) {
	return r.ShadowValidateHashed(e, body, nil, obj)
}

// ShadowValidateHashed is ShadowValidate for a caller that has hashed
// the body; see ValidateHashed.
func (r *Registry) ShadowValidateHashed(e *Entry, body []byte, sum *[sha256.Size]byte, obj object.Object) ([]validator.Violation, uint64) {
	e.requests.Add(1)
	ver := e.version.Load()
	vs := r.validateVersion(e, ver, body, sum, obj)
	deny := len(vs) > 0
	e.shadowReqs.Add(1)
	if deny {
		e.shadowDenied.Add(1)
	}
	e.shadow.record(ver.gen, deny)
	return vs, ver.gen
}
