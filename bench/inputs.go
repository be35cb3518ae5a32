package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"time"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/mutate"
	"repro/internal/object"
	"repro/internal/replay"
	"repro/internal/synth"
	"repro/internal/validator"
)

// fleetSize is the number of tenants behind the one enforcement point:
// the 5 paper charts plus synthetic workloads derived from them.
const fleetSize = 64

// corpusSeed fixes the synthetic tenants. The fleet is the same for
// every --seed, which decides only the order of requests, attacks and
// publishes: another corpus has other body sizes and another share of
// bodies the fast path vouches for (allocations per request moved by up
// to 10 % between corpora), which is another workload, not another
// sample of this one.
const corpusSeed = 1

// stampSentinel is the fixed-width metadata.resourceVersion every
// generated body carries. resourceVersion is server-owned metadata the
// policy engines scrub before matching, so overwriting its digits gives
// a body with a new hash and an unchanged verdict: a read-modify-write
// update as a controller would send it.
const stampSentinel = "7340000000000137"

// tenant is one workload of the fleet: its benign manifests and where
// its policy comes from. The five paper charts carry the chart itself,
// because generating their policy (core.GeneratePolicy) is set-up work
// the benchmark times; synthetic tenants arrive with the policy
// synth.Generate consolidated, which is input generation.
type tenant struct {
	name    string
	chart   *chart.Chart
	policy  *validator.Validator
	objects []object.Object
}

// request is one generated admission request with its ground truth.
type request struct {
	method string
	url    *url.URL
	header http.Header
	body   []byte
	yaml   bool
	// stamp is the offset of the resourceVersion digits in body.
	stamp int
	// deny is the ground truth: attacks must be answered 403, benign
	// requests 2xx.
	deny bool
}

// inputs is the generated fleet and its traffic in the order the seed
// decides. The product only ever sees the generated bytes.
type inputs struct {
	seed      int64
	tenants   []tenant
	json      []request // benign manifests on the JSON wire, shuffled
	yaml      []request // the same manifests on the YAML wire
	attacks   []request // mutated attacks, shuffled
	swapOrder []int     // tenant order for policy re-publishes
	generateS float64
}

// generate builds the fleet, its benign traffic on both wires and the
// attack set, and orders them by seed.
func generate(seed int64) (*inputs, error) {
	start := time.Now()
	in := &inputs{seed: seed}
	for _, name := range charts.Names() {
		c, err := charts.Load(name)
		if err != nil {
			return nil, err
		}
		files, err := c.Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: name})
		if err != nil {
			return nil, fmt.Errorf("rendering %s: %w", name, err)
		}
		in.tenants = append(in.tenants, tenant{name: name, chart: c, objects: chart.Objects(files)})
	}
	ws, err := synth.Generate(synth.Options{Seed: corpusSeed, Count: fleetSize - len(in.tenants)})
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		in.tenants = append(in.tenants, tenant{name: w.Name, policy: w.Policy, objects: w.Objects})
	}

	for _, t := range in.tenants {
		for _, o := range t.objects {
			o = o.DeepCopy()
			if err := object.Set(o, "metadata.resourceVersion", stampSentinel); err != nil {
				return nil, err
			}
			ev, err := replay.BenignEvent(t.name, o, http.MethodPost)
			if err != nil {
				return nil, err
			}
			in.json = append(in.json, newRequest(t.name, ev))
			ev, err = replay.BenignEventYAML(t.name, o, http.MethodPost)
			if err != nil {
				return nil, err
			}
			in.yaml = append(in.yaml, newRequest(t.name, ev))
		}
		// One variant per (attack, mutation class) pair: the whole
		// 7-class catalog against every tenant.
		scs, err := mutate.ForCatalog(t.objects, mutate.Options{MaxPerAttackClass: 1})
		if err != nil {
			return nil, err
		}
		for _, sc := range scs {
			sc.Object = sc.Object.DeepCopy()
			if err := object.Set(sc.Object, "metadata.resourceVersion", stampSentinel); err != nil {
				return nil, err
			}
			ev, err := replay.AttackEvent(t.name, sc)
			if err != nil {
				return nil, err
			}
			in.attacks = append(in.attacks, newRequest(t.name, ev))
		}
	}
	for _, rs := range [][]request{in.json, in.yaml, in.attacks} {
		for i := range rs {
			if rs[i].stamp < 0 {
				return nil, fmt.Errorf("%s %s: body does not carry the resourceVersion sentinel exactly once",
					rs[i].method, rs[i].url.Path)
			}
		}
	}

	// One permutation for both wires, so unique_json and unique_yaml
	// send the same manifests in the same order.
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(in.json))
	in.json, in.yaml = permute(in.json, perm), permute(in.yaml, perm)
	in.attacks = permute(in.attacks, rng.Perm(len(in.attacks)))
	in.swapOrder = rng.Perm(len(in.tenants))
	in.generateS = time.Since(start).Seconds()
	return in, nil
}

func permute(rs []request, perm []int) []request {
	out := make([]request, len(rs))
	for i, p := range perm {
		out[i] = rs[p]
	}
	return out
}

func newRequest(tenant string, ev replay.Event) request {
	stamp := -1
	if bytes.Count(ev.Body, []byte(stampSentinel)) == 1 {
		stamp = bytes.Index(ev.Body, []byte(stampSentinel))
	}
	return request{
		method: ev.Method,
		url:    &url.URL{Scheme: "http", Host: "kubefence.invalid", Path: ev.Path},
		header: http.Header{
			"Content-Type":  {ev.ContentType},
			"X-Remote-User": {"operator:" + tenant},
		},
		body:  ev.Body,
		yaml:  ev.ContentType == "application/yaml",
		stamp: stamp,
		deny:  ev.ExpectBlocked,
	}
}

// traffic is one workload's request stream: slot s of the stream is a
// pure function of s, so every run of a seed sends the same requests.
type traffic struct {
	benign []request
	// attacks, when set, take every attackEvery-th slot.
	attacks []request
	// unique stamps a fresh counter into every body, so no two bodies
	// hash alike and the decision cache never hits.
	unique bool
}

// attackEvery puts one attack in every five requests of attack_mix.
const attackEvery = 5

func (t *traffic) at(slot int) *request {
	if t.attacks == nil {
		return &t.benign[slot%len(t.benign)]
	}
	if slot%attackEvery == attackEvery-1 {
		return &t.attacks[(slot/attackEvery)%len(t.attacks)]
	}
	return &t.benign[(slot-slot/attackEvery)%len(t.benign)]
}

// period is the number of slots after which the stream repeats its
// manifests (two passes over it are the warm-up).
func (t *traffic) period() int {
	if t.attacks == nil {
		return len(t.benign)
	}
	return len(t.benign) * attackEvery / (attackEvery - 1)
}

// wire returns the bytes to send for r: the manifest as generated, or,
// when the traffic is unique, a copy in scratch stamped with counter.
func (t *traffic) wire(scratch *[]byte, r *request, counter uint64) []byte {
	if !t.unique {
		return r.body
	}
	*scratch = stampInto(*scratch, r, counter)
	return *scratch
}

// stampInto copies r's body into scratch with the counter written over
// the resourceVersion digits and returns the stamped bytes.
func stampInto(scratch []byte, r *request, counter uint64) []byte {
	scratch = append(scratch[:0], r.body...)
	stamp(scratch, r.stamp, counter)
	return scratch
}

// stamp overwrites the fixed-width digits at off with counter.
func stamp(body []byte, off int, counter uint64) {
	for i := off + len(stampSentinel) - 1; i >= off; i-- {
		body[i] = byte('0' + counter%10)
		counter /= 10
	}
}

// bodiesHash is the SHA-256 of the first n request bodies of the
// stream as a single client starting at slot 0 sends them.
func bodiesHash(t *traffic, n int) string {
	h := sha256.New()
	var scratch []byte
	for slot := 0; slot < n; slot++ {
		h.Write(t.wire(&scratch, t.at(slot), uint64(slot)))
	}
	return hex.EncodeToString(h.Sum(nil))
}
