package experiments

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/plane"
	"repro/internal/registry"
	"repro/internal/replay"
	"repro/internal/synth"
)

// The tier the plane experiment builds is fixed, not tunable: the run
// exists to score verdicts through a rebalanced weighted tier, and these
// are the values that make the rebalance move shards on a small corpus.
const (
	// planeZipfExponent skews the warm traffic (share 1/rank^s). At the
	// default 32-workload corpus the hottest workload's share is ~12.3%.
	planeZipfExponent = 0.6
	// planeRebalanceThreshold is the weighted placer's hysteresis band —
	// tighter than the plane's own 0.2 default, so the warm phase's
	// imbalance reliably triggers a migration.
	planeRebalanceThreshold = 0.05
	// planeVirtualNodes is the consistent-hash virtual-node count per
	// replica, raised so the small namespace corpus shards evenly.
	planeVirtualNodes = 512
	// planeWarmPasses is the zipf warm phase in corpus-lengths: enough
	// skewed traffic for the load scores the rebalance consumes.
	planeWarmPasses = 4
)

// PlaneOptions configure the distributed-admission-tier experiment.
type PlaneOptions struct {
	// Replicas is the tier size (default 8).
	Replicas int
	// Synth is the generated workload-corpus size — one namespace-scoped
	// shard key per workload (default 32).
	Synth int
	// Seed drives corpus generation, trace interleaving, and the zipf
	// rank shuffle (default 1).
	Seed int64
	// CacheSize bounds each replica's per-workload decision cache
	// (0 disables, which also skips the cache-retention cell).
	CacheSize int
	// MaxPerAttackClass caps mutation variants per (attack, class) pair
	// in the correctness matrix (0 = full matrix).
	MaxPerAttackClass int
	// Concurrency is the replaying-client count (default 8).
	Concurrency int
}

func (o *PlaneOptions) defaults() {
	if o.Replicas <= 0 {
		o.Replicas = 8
	}
	if o.Synth <= 0 {
		o.Synth = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
}

// PlaneRebalanceCell measures hot-set cache handoff: a weighted tier is
// warmed under zipf traffic, rebalanced mid-run, and then every workload
// a shard move carried is probed once per benign object on its new
// owner. Retention is the fraction of those probes the destination
// answered from the migrated decision cache — without handoff it would
// be 0 (every probe a cold re-validation).
type PlaneRebalanceCell struct {
	WarmRequests    int     `json:"warm_requests"`
	Moves           int     `json:"moves"`
	MovedWorkloads  int     `json:"moved_workloads"`
	HandoffEntries  int     `json:"handoff_entries"`
	ImbalanceBefore float64 `json:"imbalance_before"`
	ImbalanceAfter  float64 `json:"imbalance_after"`
	// Probes is the post-rebalance benign replay count against moved
	// workloads; RetainedHits of them were served from the destination
	// replica's cache.
	Probes       int     `json:"probes"`
	RetainedHits int     `json:"retained_hits"`
	Retention    float64 `json:"retention"`
}

// PlaneResult is the machine-readable outcome: the post-rebalance
// cache-retention cell and one full benign + adversarial correctness
// matrix replayed through the rebalanced weighted tier.
type PlaneResult struct {
	Replicas          int           `json:"replicas"`
	Synth             int           `json:"synth_workloads"`
	Seed              int64         `json:"seed"`
	CacheSize         int           `json:"cache_size"`
	MaxPerAttackClass int           `json:"max_per_attack_class,omitempty"`
	Generator         synth.Options `json:"generator"`
	// VerifiedPairs records that every generated (policy, trace) pair
	// passed synth.Verify before anything ran.
	VerifiedPairs bool `json:"verified_pairs"`

	// Rebalance is the cache-handoff retention measurement (nil when the
	// decision cache is disabled).
	Rebalance *PlaneRebalanceCell `json:"rebalance,omitempty"`

	// Matrix is the full replay scorecard; MatrixRebalanceMoves counts
	// the shard moves the live rebalance made before it ran, so the
	// zero-FN/zero-FP contract covers migrated shards, not just the
	// static hash layout.
	MatrixRebalanceMoves int           `json:"matrix_rebalance_moves"`
	Matrix               replay.Result `json:"matrix"`

	TotalFalseNegatives int   `json:"total_false_negatives"`
	TotalFalsePositives int   `json:"total_false_positives"`
	Errors              int   `json:"errors"`
	ElapsedNs           int64 `json:"elapsed_ns"`
}

// Clean reports a run with verified pairs and a zero-FN / zero-FP /
// zero-error correctness matrix.
func (r *PlaneResult) Clean() bool {
	return r.VerifiedPairs && r.TotalFalseNegatives == 0 &&
		r.TotalFalsePositives == 0 && r.Errors == 0
}

// planeRequest is one precomputed benign admission (path + JSON body).
type planeRequest struct {
	path string
	body []byte
}

// planeCorpus is the precomputed benign admission set, grouped by
// workload so the warm schedule can weight workloads independently.
type planeCorpus struct {
	ws []synth.Workload
	// byWorkload[i] holds workload i's benign requests (one per object).
	byWorkload [][]planeRequest
	total      int
}

func newPlaneCorpus(ws []synth.Workload) (*planeCorpus, error) {
	c := &planeCorpus{ws: ws, byWorkload: make([][]planeRequest, len(ws))}
	for i := range ws {
		w := &ws[i]
		for _, o := range w.Objects {
			ev, err := replay.BenignEvent(w.Name, o, "POST")
			if err != nil {
				return nil, err
			}
			c.byWorkload[i] = append(c.byWorkload[i], planeRequest{path: ev.Path, body: ev.Body})
		}
		c.total += len(c.byWorkload[i])
	}
	if c.total == 0 {
		return nil, fmt.Errorf("experiments: plane: corpus rendered no objects")
	}
	return c, nil
}

// fullPass returns one request per corpus object — a coverage pass that
// validates (and caches) every decision once.
func (c *planeCorpus) fullPass() []planeRequest {
	out := make([]planeRequest, 0, c.total)
	for _, reqs := range c.byWorkload {
		out = append(out, reqs...)
	}
	return out
}

// zipfWeights returns per-workload request shares 1/(rank+1)^s with
// ranks dealt by a seeded shuffle, so the hot set is decorrelated from
// generation order (and therefore from hash placement) but identical
// across runs with the same seed.
func (c *planeCorpus) zipfWeights(seed int64) []float64 {
	w := make([]float64, len(c.ws))
	for rank, i := range rand.New(rand.NewSource(seed)).Perm(len(c.ws)) {
		w[i] = 1 / math.Pow(float64(rank+1), planeZipfExponent)
	}
	return w
}

// schedule builds a deterministic request sequence of the given length:
// smooth weighted round-robin across workloads (each workload's
// instantaneous share tracks its weight — no bursts), each pick cycling
// that workload's own benign objects.
func (c *planeCorpus) schedule(weights []float64, total int) []planeRequest {
	n := len(c.byWorkload)
	cur := make([]float64, n)
	next := make([]int, n)
	var sum float64
	for _, w := range weights {
		sum += w
	}
	out := make([]planeRequest, 0, total)
	for len(out) < total {
		best := 0
		for i := 1; i < n; i++ {
			if cur[i]+weights[i] > cur[best]+weights[best] {
				best = i
			}
		}
		for i := range cur {
			cur[i] += weights[i]
		}
		cur[best] -= sum
		reqs := c.byWorkload[best]
		out = append(out, reqs[next[best]%len(reqs)])
		next[best]++
	}
	return out
}

// Plane scores the distributed admission tier: the post-rebalance
// cache-retention cell, then one full benign + adversarial correctness
// matrix through a warmed, rebalanced weighted tier. The corpus is the
// same seeded synthetic workload set the scenarios experiment uses, one
// namespace shard key per workload.
func Plane(opts PlaneOptions) (*PlaneResult, error) {
	opts.defaults()
	genOpts := synth.Options{Seed: opts.Seed, Count: opts.Synth}
	ws, err := synth.Generate(genOpts)
	if err != nil {
		return nil, err
	}
	for i := range ws {
		if err := synth.Verify(&ws[i]); err != nil {
			return nil, err
		}
	}
	corpus, err := newPlaneCorpus(ws)
	if err != nil {
		return nil, err
	}

	out := &PlaneResult{
		Replicas:          opts.Replicas,
		Synth:             opts.Synth,
		Seed:              opts.Seed,
		CacheSize:         opts.CacheSize,
		MaxPerAttackClass: opts.MaxPerAttackClass,
		Generator:         genOpts.Resolved(),
		VerifiedPairs:     true,
	}
	start := time.Now()

	// Cache-retention cell: only meaningful with a live decision cache.
	if opts.CacheSize > 0 {
		if out.Rebalance, err = measurePlaneRebalance(corpus, opts); err != nil {
			return nil, err
		}
	}

	matrix, moves, err := runPlaneMatrix(corpus, opts)
	if err != nil {
		return nil, err
	}
	out.MatrixRebalanceMoves = moves
	out.Matrix = *matrix
	out.TotalFalseNegatives = matrix.FalseNegatives
	out.TotalFalsePositives = matrix.FalsePositives
	out.Errors = matrix.Errors

	out.ElapsedNs = time.Since(start).Nanoseconds()
	return out, nil
}

// servePlaneRequest admits one benign request through the tier; anything
// but 200 is an error (the tier is unbounded, so nothing is shed).
func servePlaneRequest(pl *plane.Plane, pr planeRequest) error {
	req := httptest.NewRequest(http.MethodPost, pr.path, bytes.NewReader(pr.body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Remote-User", "operator:plane")
	rec := httptest.NewRecorder()
	pl.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("experiments: plane: benign admission %s: status %d: %s",
			pr.path, rec.Code, rec.Body.String())
	}
	return nil
}

// runPlaneSchedule drives a request schedule through the tier with the
// given client count, each client owning a contiguous chunk.
func runPlaneSchedule(pl *plane.Plane, schedule []planeRequest, clients int) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w * len(schedule) / clients
			hi := (w + 1) * len(schedule) / clients
			for _, pr := range schedule[lo:hi] {
				if errs[w] = servePlaneRequest(pl, pr); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// rebalancedPlane builds a weighted tier with every corpus workload
// registered under its namespace selector, warms it — a full coverage
// pass, then planeWarmPasses corpus-lengths of zipf traffic — and
// rebalances it, so what follows runs over migrated shard
// ownership and handed-off caches. The in-memory transport and unbounded
// replicas keep replay.Run's zero-error contract honest: any shed or
// misroute shows up as a scored error, never a silent pass.
func rebalancedPlane(corpus *planeCorpus, opts PlaneOptions) (*plane.Plane, plane.RebalanceReport, error) {
	pl, err := plane.New(plane.Config{
		Replicas:           opts.Replicas,
		Upstream:           "http://upstream.invalid",
		Transport:          NullTransport{},
		CacheSize:          opts.CacheSize,
		VirtualNodes:       planeVirtualNodes,
		ProxyUser:          "kubefence-proxy",
		Placement:          plane.PlacementWeighted,
		RebalanceThreshold: planeRebalanceThreshold,
	})
	if err != nil {
		return nil, plane.RebalanceReport{}, err
	}
	for i := range corpus.ws {
		w := &corpus.ws[i]
		if err := pl.Register(w.Name, registry.Selector{Namespace: w.Name}, w.Policy); err != nil {
			return nil, plane.RebalanceReport{}, err
		}
	}
	if err := runPlaneSchedule(pl, corpus.fullPass(), opts.Concurrency); err != nil {
		return nil, plane.RebalanceReport{}, err
	}
	warm := corpus.schedule(corpus.zipfWeights(opts.Seed), planeWarmPasses*corpus.total)
	if err := runPlaneSchedule(pl, warm, opts.Concurrency); err != nil {
		return nil, plane.RebalanceReport{}, err
	}
	report, err := pl.Rebalance()
	return pl, report, err
}

// measurePlaneRebalance measures hot-set cache handoff on a fresh
// rebalanced tier: probe every moved workload's benign objects once each
// on their new owner and count how many the migrated cache answered.
func measurePlaneRebalance(corpus *planeCorpus, opts PlaneOptions) (*PlaneRebalanceCell, error) {
	pl, report, err := rebalancedPlane(corpus, opts)
	if err != nil {
		return nil, err
	}
	cell := &PlaneRebalanceCell{
		WarmRequests:    planeWarmPasses * corpus.total,
		Moves:           len(report.Moves),
		HandoffEntries:  report.HandoffEntries,
		ImbalanceBefore: report.ImbalanceBefore,
		ImbalanceAfter:  report.ImbalanceAfter,
	}

	byName := make(map[string]int, len(corpus.ws))
	for i := range corpus.ws {
		byName[corpus.ws[i].Name] = i
	}
	probed := make(map[string]bool)
	for _, mv := range report.Moves {
		for _, wname := range mv.Workloads {
			if probed[wname] {
				continue
			}
			probed[wname] = true
			cell.MovedWorkloads++
			wi, ok := byName[wname]
			if !ok {
				continue
			}
			before, _ := pl.ReplicaWorkloadMetrics(mv.To, wname)
			for _, pr := range corpus.byWorkload[wi] {
				if err := servePlaneRequest(pl, pr); err != nil {
					return nil, err
				}
				cell.Probes++
			}
			after, _ := pl.ReplicaWorkloadMetrics(mv.To, wname)
			cell.RetainedHits += int(after.CacheHits - before.CacheHits)
		}
	}
	if cell.Probes > 0 {
		cell.Retention = float64(cell.RetainedHits) / float64(cell.Probes)
	}
	return cell, nil
}

// runPlaneMatrix replays the corpus's full benign + mutation event set
// through an httptest server fronting a fresh rebalanced tier.
func runPlaneMatrix(corpus *planeCorpus, opts PlaneOptions) (*replay.Result, int, error) {
	pl, report, err := rebalancedPlane(corpus, opts)
	if err != nil {
		return nil, 0, err
	}

	var events []replay.Event
	for i := range corpus.ws {
		w := &corpus.ws[i]
		benign, attacks, err := workloadTrace(w.Name, w.Objects, opts.MaxPerAttackClass, false)
		if err != nil {
			return nil, 0, err
		}
		events = append(append(events, benign...), attacks...)
	}

	ts := httptest.NewServer(pl)
	defer ts.Close()
	res, err := replay.Run(ts.URL, events, replay.Options{
		Concurrency: opts.Concurrency,
		Seed:        opts.Seed,
	})
	if err != nil {
		return nil, 0, err
	}
	return res, len(report.Moves), nil
}

// RenderPlane renders the result for humans.
func RenderPlane(r *PlaneResult) string {
	var b strings.Builder
	b.WriteString("Distributed admission plane: cache handoff + correctness matrix through a rebalanced tier\n\n")
	fmt.Fprintf(&b, "corpus: %d workloads (seed %d)   verified pairs: %v   replicas: %d   cache: %d\n",
		r.Synth, r.Seed, r.VerifiedPairs, r.Replicas, r.CacheSize)
	if rc := r.Rebalance; rc != nil {
		fmt.Fprintf(&b, "\ncache handoff (zipf warm): %d move(s), %d workload(s), %d handed-off entrie(s)\n",
			rc.Moves, rc.MovedWorkloads, rc.HandoffEntries)
		fmt.Fprintf(&b, "imbalance %.2f -> %.2f   retention: %d/%d probes answered warm (%.2f)\n",
			rc.ImbalanceBefore, rc.ImbalanceAfter, rc.RetainedHits, rc.Probes, rc.Retention)
	}
	fmt.Fprintf(&b, "\ncorrectness matrix (weighted placement, %d rebalance move(s)): %d events (%d benign, %d attacks)\n",
		r.MatrixRebalanceMoves, r.Matrix.Events, r.Matrix.BenignEvents, r.Matrix.AttackEvents)
	fmt.Fprintf(&b, "false negatives: %d   false positives: %d   errors: %d   clean: %v\n",
		r.TotalFalseNegatives, r.TotalFalsePositives, r.Errors, r.Clean())
	return b.String()
}
