// Rollout lifecycle controller: drives workloads along
// learn → shadow → enforce with explicit, auditable gates.
//
// The XI-commandments SoK's practical objection to default-deny is the
// rollout path: a policy that was never rehearsed against live traffic
// will deny something legitimate the moment it is enforced. The
// controller closes that gap:
//
//	learn    enough traffic observed  →  emit candidate, shadow it
//	shadow   candidate's would-deny rate holds the gate over a full
//	         window of its OWN generation  →  promote (generation-pinned)
//	enforce  live denial rate spikes  →  demote back to shadow
//
// While a workload shadows, requests its candidate would have denied are
// fed back into the miner: pre-enforcement traffic is trusted by
// definition of the rollout, so every shadow false positive is a
// learning opportunity, and the controller swaps the grown candidate in
// on its next tick. The swapped candidate starts a fresh shadow window —
// promotion can never ride on verdicts an older generation earned.
package learn

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/registry"
	"repro/internal/validator"
)

// GateConfig parameterizes the promotion and demotion gates.
type GateConfig struct {
	// MinLearnRequests is the number of observed requests before the
	// first candidate is emitted and shadowed (default 50).
	MinLearnRequests uint64
	// MinShadowRequests is the number of shadow verdicts the CURRENT
	// policy generation must accumulate before promotion is considered
	// (default 200).
	MinShadowRequests uint64
	// MaxShadowDenyRate is the highest would-deny rate over the sliding
	// window that still promotes (default 0 — a candidate must shadow
	// clean).
	MaxShadowDenyRate float64
	// DemoteDenyRate is the live denial rate (denials/requests between
	// two ticks) above which an enforcing workload demotes back to
	// shadow (default 0.25).
	DemoteDenyRate float64
	// DemoteMinRequests is the minimum number of requests between two
	// ticks before the demotion rate is judged at all (default 20).
	DemoteMinRequests uint64
}

func (g GateConfig) withDefaults() GateConfig {
	if g.MinLearnRequests == 0 {
		g.MinLearnRequests = 50
	}
	if g.MinShadowRequests == 0 {
		g.MinShadowRequests = 200
	}
	if g.DemoteDenyRate == 0 {
		g.DemoteDenyRate = 0.25
	}
	if g.DemoteMinRequests == 0 {
		g.DemoteMinRequests = 20
	}
	return g
}

// Transition records one lifecycle move a Tick performed.
type Transition struct {
	Workload   string        `json:"workload"`
	From, To   registry.Mode `json:"-"`
	FromName   string        `json:"from"`
	ToName     string        `json:"to"`
	Generation uint64        `json:"generation"`
	Reason     string        `json:"reason"`
}

// WorkloadState snapshots one managed workload for reporting.
type WorkloadState struct {
	Workload   string               `json:"workload"`
	Mode       string               `json:"mode"`
	Generation uint64               `json:"generation"`
	Observed   uint64               `json:"observed"`
	Candidates int                  `json:"candidates"`
	Promotions int                  `json:"promotions"`
	Demotions  int                  `json:"demotions"`
	Shadow     registry.ShadowStats `json:"shadow"`
}

// managed is the controller's per-workload bookkeeping.
type managed struct {
	miner        *Miner
	minerVersion uint64 // miner version the current candidate reflects
	// base is the pre-existing policy of an Adopted workload (nil for
	// learned-from-scratch ones); candidates are unioned onto it so
	// shadow feedback can only widen, never replace, the base.
	base          *validator.Validator
	candidates    int
	promotions    int
	demotions     int
	lastRequests  uint64 // enforce-mode rate tracking between ticks
	lastDenied    uint64
	haveRateBasis bool
}

// Controller advances managed workloads along the rollout lifecycle.
// Tick is safe to call from a timer goroutine while the enforcement
// point serves traffic.
type Controller struct {
	reg   *registry.Registry
	gates GateConfig

	// mu guards the workload map; tickMu serializes Tick (and States'
	// reads of per-workload bookkeeping) so two timers can never
	// interleave gate evaluations for the same workload.
	mu        sync.Mutex
	tickMu    sync.Mutex
	workloads map[string]*managed
}

// NewController builds a controller over a registry.
func NewController(reg *registry.Registry, gates GateConfig) *Controller {
	return &Controller{
		reg:       reg,
		gates:     gates.withDefaults(),
		workloads: map[string]*managed{},
	}
}

// AddWorkload registers a workload in learn mode with a fresh miner
// attached as its observer, and places it under lifecycle management.
func (c *Controller) AddWorkload(workload string, sel registry.Selector, opts Options) (*Miner, error) {
	m := New(workload, opts)
	if _, err := c.reg.RegisterLearning(workload, sel, m); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workloads[workload] = &managed{miner: m}
	return m, nil
}

// Adopt places an ALREADY-REGISTERED workload (typically carrying a
// chart-derived policy) under lifecycle management: a fresh miner is
// attached as its observer, and the workload is moved to shadow mode so
// the existing policy can rehearse against live traffic before it
// enforces. Candidates emitted from shadow feedback are unioned onto
// base, the validator the registered policy was compiled from — traffic
// can widen a chart policy's domains, but never drop the chart's
// surface. The registry holds only compiled programs, so the caller
// that generated the policy supplies its validator.
func (c *Controller) Adopt(workload string, base *validator.Validator, opts Options) (*Miner, error) {
	e, ok := c.reg.Entry(workload)
	if !ok {
		return nil, fmt.Errorf("learn: workload %s is not registered", workload)
	}
	if e.Program() == nil || base == nil {
		return nil, fmt.Errorf("learn: workload %s has no policy to adopt (use AddWorkload)", workload)
	}
	m := New(workload, opts)
	if err := c.reg.SetObserver(workload, m); err != nil {
		return nil, err
	}
	if err := c.reg.SetMode(workload, registry.ModeShadow); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workloads[workload] = &managed{miner: m, base: base}
	return m, nil
}

// Miner returns the miner managing a workload.
func (c *Controller) Miner(workload string) (*Miner, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mg, ok := c.workloads[workload]
	if !ok {
		return nil, false
	}
	return mg.miner, true
}

// Workloads lists the managed workload names, sorted.
func (c *Controller) Workloads() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.workloads))
	for w := range c.workloads {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Tick evaluates every managed workload's gates once and performs any
// due transitions, returning them for logging.
func (c *Controller) Tick() []Transition {
	c.tickMu.Lock()
	defer c.tickMu.Unlock()
	c.mu.Lock()
	names := make([]string, 0, len(c.workloads))
	for w := range c.workloads {
		names = append(names, w)
	}
	c.mu.Unlock()
	sort.Strings(names)

	var out []Transition
	for _, w := range names {
		if tr, ok := c.tickWorkload(w); ok {
			out = append(out, tr)
		}
	}
	return out
}

func (c *Controller) tickWorkload(workload string) (Transition, bool) {
	c.mu.Lock()
	mg, ok := c.workloads[workload]
	c.mu.Unlock()
	if !ok {
		return Transition{}, false
	}
	e, ok := c.reg.Entry(workload)
	if !ok {
		return Transition{}, false
	}

	switch e.Mode() {
	case registry.ModeLearn:
		if mg.miner.Requests() < c.gates.MinLearnRequests {
			return Transition{}, false
		}
		if err := c.swapCandidate(workload, mg); err != nil {
			return Transition{}, false
		}
		if err := c.reg.SetMode(workload, registry.ModeShadow); err != nil {
			return Transition{}, false
		}
		return transition(workload, registry.ModeLearn, registry.ModeShadow,
			e.Generation(), fmt.Sprintf("candidate #%d emitted after %d observed requests",
				mg.candidates, mg.miner.Requests())), true

	case registry.ModeShadow:
		// A grown miner means shadow traffic taught the candidate
		// something (a would-deny was fed back): publish the new
		// candidate first — it must earn its own clean window.
		if v := mg.miner.Version(); v != mg.minerVersion {
			if err := c.swapCandidate(workload, mg); err != nil {
				return Transition{}, false
			}
			return Transition{}, false
		}
		gen := e.Generation()
		st := e.ShadowStats()
		if st.Generation != gen || st.GenRequests < c.gates.MinShadowRequests {
			return Transition{}, false
		}
		if st.WindowDenyRate() > c.gates.MaxShadowDenyRate {
			return Transition{}, false
		}
		if err := c.reg.Promote(workload, gen); err != nil {
			// Lost a race against a swap; the next tick re-gates.
			return Transition{}, false
		}
		mg.promotions++
		mg.haveRateBasis = false
		return transition(workload, registry.ModeShadow, registry.ModeEnforce, gen,
			fmt.Sprintf("gate held: %d shadow requests, window deny rate %.4f <= %.4f",
				st.GenRequests, st.WindowDenyRate(), c.gates.MaxShadowDenyRate)), true

	case registry.ModeEnforce:
		met := e.Metrics()
		basis := mg.haveRateBasis
		dReq := met.Requests - mg.lastRequests
		dDen := met.Denied - mg.lastDenied
		mg.lastRequests, mg.lastDenied = met.Requests, met.Denied
		mg.haveRateBasis = true
		if !basis || dReq < c.gates.DemoteMinRequests {
			return Transition{}, false
		}
		rate := float64(dDen) / float64(dReq)
		if rate <= c.gates.DemoteDenyRate {
			return Transition{}, false
		}
		if _, err := c.reg.Demote(workload); err != nil {
			return Transition{}, false
		}
		mg.demotions++
		return transition(workload, registry.ModeEnforce, registry.ModeShadow,
			e.Generation(), fmt.Sprintf("denial rate %.4f > %.4f over %d requests",
				rate, c.gates.DemoteDenyRate, dReq)), true
	}
	return Transition{}, false
}

// swapCandidate emits the miner's current candidate and publishes it.
// For adopted workloads the candidate is unioned onto the base policy:
// a request is allowed if either the base or the mined evidence allows
// it.
func (c *Controller) swapCandidate(workload string, mg *managed) error {
	version := mg.miner.Version()
	pol, err := mg.miner.Policy()
	if err != nil {
		return err
	}
	if mg.base != nil {
		pol.Mode = mg.base.Mode
		pol, err = validator.Union(workload, mg.base, pol)
		if err != nil {
			return err
		}
	}
	if err := c.reg.Swap(workload, pol); err != nil {
		return err
	}
	mg.minerVersion = version
	mg.candidates++
	return nil
}

func transition(w string, from, to registry.Mode, gen uint64, reason string) Transition {
	return Transition{
		Workload: w, From: from, To: to,
		FromName: from.String(), ToName: to.String(),
		Generation: gen, Reason: reason,
	}
}

// States snapshots every managed workload, sorted by name.
func (c *Controller) States() []WorkloadState {
	c.tickMu.Lock()
	defer c.tickMu.Unlock()
	names := c.Workloads()
	out := make([]WorkloadState, 0, len(names))
	for _, w := range names {
		c.mu.Lock()
		mg := c.workloads[w]
		c.mu.Unlock()
		e, ok := c.reg.Entry(w)
		if !ok || mg == nil {
			continue
		}
		out = append(out, WorkloadState{
			Workload:   w,
			Mode:       e.Mode().String(),
			Generation: e.Generation(),
			Observed:   mg.miner.Requests(),
			Candidates: mg.candidates,
			Promotions: mg.promotions,
			Demotions:  mg.demotions,
			Shadow:     e.ShadowStats(),
		})
	}
	return out
}
