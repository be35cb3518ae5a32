package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/plane"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/validator"
)

// Production configuration, the same on every front: compiled engine,
// raw fast path on, per-workload decision-cache shards, telemetry at
// the CLI's default sampling, no tap, synchronous sinks.
const (
	cacheSize   = 1024
	sampleEvery = 128
	upstreamURL = "http://upstream.invalid"
)

type frontKind int

const (
	frontProxy  frontKind = iota // proxy.Proxy.ServeHTTP in-process, null upstream
	frontPlane                   // plane.Plane.ServeHTTP in-process, null upstream
	frontSocket                  // loopback TCP: client -> proxy server -> stub upstream server
)

// front is one built enforcement point with the fleet registered.
type front struct {
	kind     frontKind
	handler  http.Handler // in-process entry point (nil on the socket front)
	addr     string       // the proxy's listener (socket front only)
	proxy    *proxy.Proxy // nil on the plane front
	plane    *plane.Plane // nil on the proxy and socket fronts
	names    []string
	policies []*validator.Validator
	closers  []func()

	// Per-call timings of the build, for core.generate_policy_ns and
	// registry.register_ns.
	generatePolicyNs []float64
	registerNs       []float64
}

// nullUpstream completes the upstream round trip in memory. It closes
// the request body as the RoundTripper contract requires, which is what
// returns the proxy's pooled body buffer.
type nullUpstream struct{}

func (nullUpstream) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody}, nil
}

// selectorFor scopes a tenant to its namespace plus the cluster-scoped
// kinds its policy allows, as the facade registers workloads.
func selectorFor(name string, v *validator.Validator) registry.Selector {
	return registry.Selector{Namespace: name, ClusterKinds: registry.ClusterScopedKinds(v.AllowedKinds())}
}

// buildPolicies generates the chart policies; the synthetic tenants
// bring theirs.
func (f *front) buildPolicies(in *inputs) error {
	for _, t := range in.tenants {
		pol := t.policy
		if t.chart != nil {
			start := time.Now()
			res, err := core.GeneratePolicy(t.chart, core.Options{})
			if err != nil {
				return err
			}
			f.generatePolicyNs = append(f.generatePolicyNs, float64(time.Since(start)))
			pol = res.Validator
		}
		f.names = append(f.names, t.name)
		f.policies = append(f.policies, pol)
	}
	return nil
}

// registerFleet registers every tenant through register, timing each.
func (f *front) registerFleet(register func(name string, sel registry.Selector, v *validator.Validator) error) error {
	for i, name := range f.names {
		start := time.Now()
		if err := register(name, selectorFor(name, f.policies[i]), f.policies[i]); err != nil {
			return err
		}
		f.registerNs = append(f.registerNs, float64(time.Since(start)))
	}
	return nil
}

// buildFront builds one enforcement point from generated inputs up to
// the point where it can serve its first request.
func buildFront(kind frontKind, in *inputs) (*front, error) {
	f := &front{kind: kind}
	if err := f.buildPolicies(in); err != nil {
		return nil, err
	}
	if kind == frontPlane {
		pl, err := plane.New(plane.Config{
			Replicas:  runtime.NumCPU(),
			Upstream:  upstreamURL,
			Transport: nullUpstream{},
			CacheSize: cacheSize,
			Telemetry: &telemetry.Config{SampleEvery: sampleEvery},
			Placement: plane.PlacementHash,
		})
		if err != nil {
			return nil, err
		}
		if err := f.registerFleet(pl.Register); err != nil {
			return nil, err
		}
		f.plane, f.handler = pl, pl
		f.closers = append(f.closers, func() { pl.Close() })
		return f, nil
	}

	reg := registry.New(registry.Config{CacheSize: cacheSize})
	err := f.registerFleet(func(name string, sel registry.Selector, v *validator.Validator) error {
		_, err := reg.Register(name, sel, v)
		return err
	})
	if err != nil {
		return nil, err
	}
	cfg := proxy.Config{
		Upstream:  upstreamURL,
		Transport: nullUpstream{},
		Registry:  reg,
		ProxyUser: "kubefence-proxy",
		Telemetry: telemetry.New(telemetry.Config{SampleEvery: sampleEvery}),
	}
	if kind == frontSocket {
		stub, transport, err := newStubUpstream()
		if err != nil {
			return nil, err
		}
		f.closers = append(f.closers, stub.close, transport.CloseIdleConnections)
		cfg.Upstream, cfg.Transport = "http://"+stub.addr, transport
	}
	px, err := proxy.New(cfg)
	if err != nil {
		f.close()
		return nil, err
	}
	f.proxy, f.handler = px, px
	if kind == frontSocket {
		srv, err := serve(px)
		if err != nil {
			f.close()
			return nil, err
		}
		f.handler, f.addr = nil, srv.addr
		// The proxy server closes before its upstream.
		f.closers = append([]func(){srv.close}, f.closers...)
	}
	return f, nil
}

// newStubUpstream starts the API server behind the socket front — it
// reads the body and answers a small Status — and returns it with the
// transport the proxy reaches it through.
func newStubUpstream() (*server, *http.Transport, error) {
	stub, err := serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"kind":"Status","status":"Success"}`)
	}))
	if err != nil {
		return nil, nil, err
	}
	return stub, &http.Transport{MaxIdleConnsPerHost: 4 * runtime.NumCPU()}, nil
}

func (f *front) close() {
	for _, c := range f.closers {
		c()
	}
	f.closers = nil
}

// publish re-publishes tenant i's policy: the same validator, a new
// generation. It returns once the new generation is the one served.
func (f *front) publish(i int) error {
	if f.plane != nil {
		return f.plane.Swap(f.names[i], f.policies[i])
	}
	return f.proxy.Registry().Swap(f.names[i], f.policies[i])
}

// counters is the front's own verdict accounting, summed over replicas
// on the plane.
func (f *front) counters() proxy.Metrics {
	if f.plane != nil {
		return f.plane.Metrics().Proxy
	}
	return f.proxy.Metrics()
}

// server is a loopback HTTP server that close stops and waits for.
type server struct {
	addr string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	s := &server{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed from close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close() // drops the listener and every connection; nothing is in flight by then
	<-s.done
}
