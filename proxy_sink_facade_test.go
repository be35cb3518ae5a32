package kubefence_test

import (
	"testing"

	kubefence "repro"
)

// TestProxySinkKnobsFacade pins that the async-sink and fast-path knobs
// are reachable through ProxyConfig.
func TestProxySinkKnobsFacade(t *testing.T) {
	c, err := kubefence.LoadBuiltinChart("nginx")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := kubefence.GeneratePolicy(c, kubefence.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := kubefence.NewProxy(kubefence.ProxyConfig{
		Upstream:           "http://127.0.0.1:1",
		Policy:             pol,
		DisableRawFastPath: true,
		SinkBuffer:         8,
		OnViolation:        func(kubefence.ViolationRecord) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseSinks()
	if st := p.SinkStats(); st != (kubefence.SinkStats{}) {
		t.Errorf("fresh sink stats = %+v", st)
	}
}
