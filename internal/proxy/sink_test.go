package proxy

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/registry"
)

func TestAsyncSinkDeliversOffRequestGoroutine(t *testing.T) {
	type delivery struct {
		rec ViolationRecord
	}
	var mu sync.Mutex
	var got []delivery
	p := newRawPathProxy(t, func(c *Config) {
		c.SinkBuffer = 16
		c.OnViolation = func(rec ViolationRecord) {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, delivery{rec})
		}
	})
	defer p.CloseSinks()
	if rec := postJSON(t, p, badDeployment()); rec.Code != http.StatusForbidden {
		t.Fatalf("status %d", rec.Code)
	}
	if !p.FlushSinks(5 * time.Second) {
		t.Fatal("sink did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].rec.Kind != "Deployment" || len(got[0].rec.Violations) == 0 {
		t.Fatalf("deliveries = %+v", got)
	}
	st := p.SinkStats()
	if st.Enqueued != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestAsyncSinkDropsWhenFullWithoutBlockingRequests stalls the sink
// callback and floods denials: requests must complete immediately, the
// overflow must be counted as drops, and accounting must balance.
func TestAsyncSinkDropsWhenFullWithoutBlockingRequests(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	p := newRawPathProxy(t, func(c *Config) {
		c.SinkBuffer = 2
		c.OnViolation = func(ViolationRecord) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
		}
	})
	const denials = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < denials; i++ {
			if rec := postJSON(t, p, badDeployment()); rec.Code != http.StatusForbidden {
				t.Errorf("request %d: status %d", i, rec.Code)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("requests blocked on a stalled sink")
	}
	<-started // the worker is wedged inside the first callback
	st := p.SinkStats()
	if st.Enqueued != denials {
		t.Fatalf("enqueued = %d, want %d", st.Enqueued, denials)
	}
	if st.Dropped == 0 {
		t.Fatalf("no drops recorded with a stalled sink and a 2-slot ring: %+v", st)
	}
	close(release)
	if !p.FlushSinks(5 * time.Second) {
		t.Fatal("sink did not drain after release")
	}
	st = p.SinkStats()
	if st.Delivered+st.Dropped != st.Enqueued {
		t.Errorf("accounting does not balance: %+v", st)
	}
	// The proxy's own bounded log stayed exact regardless of drops.
	if got := len(p.Violations()); got != denials {
		t.Errorf("violation log holds %d records, want %d", got, denials)
	}
	p.CloseSinks()
}

// TestFlushSinksWaitsOnDrainSignal holds the one delivered callback:
// a flush cannot drain and times out false; released, a flush with a
// long timeout is woken by the drained signal, not by its timer.
func TestFlushSinksWaitsOnDrainSignal(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	p := newRawPathProxy(t, func(c *Config) {
		c.SinkBuffer = 4
		c.OnViolation = func(ViolationRecord) {
			entered <- struct{}{}
			<-release
		}
	})
	defer p.CloseSinks()
	if rec := postJSON(t, p, badDeployment()); rec.Code != http.StatusForbidden {
		t.Fatalf("status %d", rec.Code)
	}
	<-entered // the worker holds the event
	if p.FlushSinks(20 * time.Millisecond) {
		t.Fatal("flush reported a drained sink while its callback is held")
	}
	const long = time.Minute
	flushed := make(chan bool)
	start := time.Now()
	go func() { flushed <- p.FlushSinks(long) }()
	close(release)
	if !<-flushed {
		t.Fatal("flush did not drain after the callback was released")
	}
	if waited := time.Since(start); waited > long/2 {
		t.Errorf("flush returned after %v: woken by its timer, not the drained signal", waited)
	}
	if st := p.SinkStats(); st.Enqueued != 1 || st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAsyncSinkShadowAndTap(t *testing.T) {
	var mu sync.Mutex
	var shadows, taps int
	p := newRawPathProxy(t, func(c *Config) {
		c.SinkBuffer = 16
		c.OnShadowViolation = func(ViolationRecord) {
			mu.Lock()
			shadows++
			mu.Unlock()
		}
		c.Tap = func(workload, user, method, path string, obj object.Object) {
			mu.Lock()
			taps++
			mu.Unlock()
		}
	})
	defer p.CloseSinks()
	if err := p.Registry().SetMode("test", registry.ModeShadow); err != nil {
		t.Fatal(err)
	}
	// A would-deny in shadow mode: forwarded, recorded, tapped.
	if rec := postJSON(t, p, badDeployment()); rec.Code != http.StatusOK {
		t.Fatalf("shadow-mode would-deny not forwarded: %d", rec.Code)
	}
	if !p.FlushSinks(5 * time.Second) {
		t.Fatal("sink did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	if shadows != 1 || taps != 1 {
		t.Errorf("shadows=%d taps=%d, want 1/1", shadows, taps)
	}
}

func TestSynchronousSinkUnchanged(t *testing.T) {
	delivered := false
	p := newRawPathProxy(t, func(c *Config) {
		c.OnViolation = func(ViolationRecord) { delivered = true }
	})
	if rec := postJSON(t, p, badDeployment()); rec.Code != http.StatusForbidden {
		t.Fatalf("status %d", rec.Code)
	}
	// Synchronous: delivered before ServeHTTP returned, no sink stats.
	if !delivered {
		t.Fatal("synchronous callback not delivered inline")
	}
	if st := p.SinkStats(); st != (SinkStats{}) {
		t.Errorf("stats = %+v, want zero for synchronous sinks", st)
	}
	if !p.FlushSinks(time.Millisecond) {
		t.Error("FlushSinks must be a no-op success without an async sink")
	}
}

func TestCloseSinksDrains(t *testing.T) {
	var mu sync.Mutex
	count := 0
	p := newRawPathProxy(t, func(c *Config) {
		c.SinkBuffer = 64
		c.OnViolation = func(ViolationRecord) {
			mu.Lock()
			count++
			mu.Unlock()
		}
	})
	for i := 0; i < 10; i++ {
		if rec := postJSON(t, p, badDeployment()); rec.Code != http.StatusForbidden {
			t.Fatalf("status %d", rec.Code)
		}
	}
	p.CloseSinks()
	p.CloseSinks() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if count != 10 {
		t.Errorf("CloseSinks drained %d of 10 events", count)
	}
}
