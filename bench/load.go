package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The load model is a closed loop: Kubernetes API clients (kubectl,
// operators) wait for the reply before they send the next request.
// clientCount goroutines in this process are the only load.
func clientCount() int { return runtime.NumCPU() }

// client is one closed-loop API client. Everything a request needs is
// reused, so that what the run allocates is what the product allocates.
type client struct {
	id      int
	slot    int    // next slot of the traffic stream
	counter uint64 // next resourceVersion stamp; the top digits are the client id
	scratch []byte
	reader  bodyReader
	req     http.Request
	rw      nullWriter
	// conn is the client's keep-alive connection to the socket front.
	conn *http.Transport

	lat          []uint32 // per-request latency of the current slice, ns
	sent         uint64
	attacks      uint64
	failed       uint64
	firstFailure string
}

// bodyReader is a request body over a reusable bytes.Reader.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// nullWriter discards the response and keeps the status.
type nullWriter struct {
	h    http.Header
	code int
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
}
func (w *nullWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(b), nil
}

// newClients builds the clients of one front. On the socket front each
// owns one keep-alive connection to the proxy's listener.
func newClients(f *front, tr *traffic, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		c := &client{
			id:      i,
			slot:    i * tr.period() / n,
			counter: uint64(i) * 1e14,
			rw:      nullWriter{h: http.Header{}},
			lat:     make([]uint32, 0, 1<<17),
		}
		if f.kind == frontSocket {
			addr := f.addr
			c.conn = &http.Transport{
				DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
					var d net.Dialer
					return d.DialContext(ctx, network, addr)
				},
				MaxIdleConnsPerHost: 1,
			}
		}
		cs[i] = c
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		if c.conn != nil {
			c.conn.CloseIdleConnections()
		}
	}
}

// do sends one request through the front and returns the status code.
func (c *client) do(f *front, r *request, body []byte) (int, error) {
	if f.kind == frontSocket {
		// The transport may still read the request after the response
		// arrived, so the socket path takes a fresh one per call.
		req := &http.Request{Method: r.method, URL: r.url, Header: r.header, Host: r.url.Host}
		if len(body) > 0 {
			req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		}
		resp, err := c.conn.RoundTrip(req)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, err
	}
	c.req = http.Request{Method: r.method, URL: r.url, Header: r.header, Host: r.url.Host}
	if len(body) > 0 {
		c.reader.Reset(body)
		c.req.Body, c.req.ContentLength = &c.reader, int64(len(body))
	}
	c.rw.code = 0
	clear(c.rw.h)
	f.handler.ServeHTTP(&c.rw, &c.req)
	return c.rw.code, nil
}

// score counts one completed request against its ground truth: an
// attack must be answered 403 and a benign request 2xx; anything else,
// a transport error included, is a failed operation.
func (c *client) score(r *request, status int, err error) {
	c.sent++
	if r.deny {
		c.attacks++
	}
	ok := err == nil && (r.deny && status == http.StatusForbidden || !r.deny && status >= 200 && status < 300)
	if !ok {
		if c.failed == 0 {
			c.firstFailure = fmt.Sprintf("%s %s (attack=%v): status %d, err %v", r.method, r.url.Path, r.deny, status, err)
		}
		c.failed++
	}
}

// next sends the client's next request of the stream and returns its
// latency as seen at the client.
func (c *client) next(f *front, tr *traffic) time.Duration {
	r := tr.at(c.slot)
	c.slot++
	body := tr.wire(&c.scratch, r, c.counter)
	c.counter++
	start := time.Now()
	status, err := c.do(f, r, body)
	d := time.Since(start)
	c.score(r, status, err)
	return d
}

// totals sums the clients' counters.
func totals(cs []*client) (sent, attacks, failed uint64, firstFailure string) {
	for _, c := range cs {
		sent += c.sent
		attacks += c.attacks
		failed += c.failed
		if firstFailure == "" {
			firstFailure = c.firstFailure
		}
	}
	return
}

// warmUp sends two passes over the stream, split across the clients,
// so caches fill and lazy set-up finishes before anything is timed.
func warmUp(f *front, tr *traffic, cs []*client) {
	per := 2 * tr.period() / len(cs)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.next(f, tr)
			}
		}(c)
	}
	wg.Wait()
}

// publisher is the control-plane writer of plane_swap_json: client 0
// re-publishes one tenant's policy every publishEvery of its loop.
type publisher struct {
	order    []int
	n        int
	last     time.Time // of the latest publish
	slowdown float64   // of the slice in progress
	busyNs   []float64 // latency of each publish issued under traffic, at reference speed
	err      error
}

const publishEvery = 100 * time.Millisecond

func (p *publisher) publish(f *front) {
	start := time.Now()
	if err := f.publish(p.order[p.n%len(p.order)]); err != nil && p.err == nil {
		p.err = err
	}
	p.busyNs = append(p.busyNs, float64(time.Since(start))/p.slowdown)
	p.n++
}

// sliceFor is the length of one measured slice. Slices are short so
// that the calibration before each one is still true at its end.
const sliceFor = 250 * time.Millisecond

// slice is what one measured interval yields, as measured: times in the
// machine's own microseconds. Slowdown is the calibration taken just
// before it (see calibrate.go), which the declared metrics apply.
type slice struct {
	Seconds  float64 `json:"seconds"`
	Slowdown float64 `json:"slowdown"`
	Requests uint64  `json:"requests"`
	Samples  int     `json:"samples"`
	RPS      float64 `json:"admit_rps"`
	P50us    float64 `json:"admit_p50_us"`
	P95us    float64 `json:"admit_p95_us"`
	P99us    float64 `json:"p99_us"` // printed, not a declared metric: see README
	CPUus    float64 `json:"cpu_us_per_req"`
	Allocs   float64 `json:"allocs_per_req"`
	Bytes    float64 `json:"alloc_bytes_per_req"`
	// GC activity over the slice, for runtime.gc_*.
	gcCycles  uint32
	gcPauseNs uint64
}

// sliceMetrics are the end-to-end metrics that are the median of their
// slice values. measured reads the slice's own figure; speed says how
// reference speed applies to it: a time is divided by the slice's
// slowdown (-1), a rate multiplied (+1), a count left alone (0).
var sliceMetrics = []struct {
	name     string
	measured func(slice) float64
	speed    float64
}{
	{"admit_rps", func(s slice) float64 { return s.RPS }, +1},
	{"admit_p50_us", func(s slice) float64 { return s.P50us }, -1},
	{"admit_p95_us", func(s slice) float64 { return s.P95us }, -1},
	{"cpu_us_per_req", func(s slice) float64 { return s.CPUus }, -1},
	{"allocs_per_req", func(s slice) float64 { return s.Allocs }, 0},
	{"alloc_bytes_per_req", func(s slice) float64 { return s.Bytes }, 0},
}

// atReference is a slice's figure at reference speed.
func atReference(s slice, measured func(slice) float64, speed float64) float64 {
	return measured(s) * math.Pow(s.Slowdown, speed)
}

// sliceValues is one figure of every slice, sorted.
func sliceValues(ss []slice, get func(slice) float64) []float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = get(s)
	}
	slices.Sort(vs)
	return vs
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSlice calibrates, then drives the front with every client for
// sliceFor and measures the interval: throughput, client-side latency
// percentiles, process CPU and allocations per request. pub, when set,
// makes client 0 publish.
func runSlice(f *front, tr *traffic, cs []*client, pub *publisher, cal *calibrator) slice {
	slow := cal.slowdown()
	if pub != nil {
		pub.slowdown = slow
	}
	var before, after runtime.MemStats
	sentBefore, _, _, _ := totals(cs)
	for _, c := range cs {
		c.lat = c.lat[:0]
	}
	runtime.ReadMemStats(&before)
	cpuBefore := cpuTime()
	start := time.Now()
	deadline := start.Add(sliceFor)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				lat := c.next(f, tr)
				c.lat = append(c.lat, uint32(min(lat, time.Duration(1<<32-1))))
				now := time.Now()
				if pub != nil && c.id == 0 && now.Sub(pub.last) >= publishEvery {
					pub.publish(f)
					pub.last = now
				}
				if now.After(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpuBefore
	runtime.ReadMemStats(&after)

	sent, _, _, _ := totals(cs)
	n := float64(sent - sentBefore)
	all := make([]uint32, 0, int(n))
	for _, c := range cs {
		all = append(all, c.lat...)
	}
	slices.Sort(all)
	return slice{
		Seconds:   elapsed.Seconds(),
		Slowdown:  slow,
		Requests:  sent - sentBefore,
		Samples:   len(all),
		RPS:       n / elapsed.Seconds(),
		P50us:     float64(quantile(all, 0.50)) / 1e3,
		P95us:     float64(quantile(all, 0.95)) / 1e3,
		P99us:     float64(quantile(all, 0.99)) / 1e3,
		CPUus:     float64(cpu.Nanoseconds()) / 1e3 / n,
		Allocs:    float64(after.Mallocs-before.Mallocs) / n,
		Bytes:     float64(after.TotalAlloc-before.TotalAlloc) / n,
		gcCycles:  after.NumGC - before.NumGC,
		gcPauseNs: after.PauseTotalNs - before.PauseTotalNs,
	}
}

// quantile reads the q-quantile off sorted samples (nearest rank).
func quantile[T any](sorted []T, q float64) T {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
