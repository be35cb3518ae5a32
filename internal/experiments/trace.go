package experiments

import (
	"io"
	"net/http"
	"strings"

	"repro/internal/mutate"
	"repro/internal/object"
	"repro/internal/replay"
)

// workloadTrace builds one workload's replay events: the benign trace —
// the operator's create sequence plus the reconcile-loop re-apply
// (update) of every object — and one attack event per scenario of the
// mutation matrix over those objects (maxPerClass caps variants per
// (attack, class) pair; 0 is the full matrix). yamlWire encodes every
// body as a round-trip-verified YAML manifest instead of JSON.
func workloadTrace(name string, objs []object.Object, maxPerClass int, yamlWire bool) (benign, attacks []replay.Event, err error) {
	benignEvent, attackEvent := replay.BenignEvent, replay.AttackEvent
	if yamlWire {
		benignEvent, attackEvent = replay.BenignEventYAML, replay.AttackEventYAML
	}
	for _, o := range objs {
		for _, method := range []string{"POST", "PUT"} {
			ev, err := benignEvent(name, o, method)
			if err != nil {
				return nil, nil, err
			}
			benign = append(benign, ev)
		}
	}
	scs, err := mutate.ForCatalog(objs, mutate.Options{MaxPerAttackClass: maxPerClass})
	if err != nil {
		return nil, nil, err
	}
	for _, sc := range scs {
		ev, err := attackEvent(name, sc)
		if err != nil {
			return nil, nil, err
		}
		attacks = append(attacks, ev)
	}
	return benign, attacks, nil
}

// NullTransport completes every upstream round trip in memory, so a
// replay scores the enforcement path (decode, resolve, validate) and
// nothing behind it. Shared by the verdict experiments and the
// multi-workload benchmarks.
type NullTransport struct{}

// RoundTrip implements http.RoundTripper. It honors the RoundTripper
// contract of closing the request body — the proxy's pooled body
// buffers are recycled through that Close.
func (NullTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"kind":"Status","status":"Success"}`)),
	}, nil
}
