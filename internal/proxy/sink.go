package proxy

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/object"
)

// The async sink moves audit callbacks — OnViolation, OnShadowViolation,
// Tap — off the request goroutine. A slow sink (an audit pipe to disk, a
// webhook) would otherwise add its latency to every affected request and,
// worse, let an attacker modulate enforcement-point latency by
// triggering denials. Events are queued on a bounded ring serviced by
// one background goroutine; when the ring is full the event is DROPPED,
// never blocked on, and the drop is counted — explicit loss accounting
// instead of silent backpressure on the hot path. The proxy's own
// denial records (a telemetry.Ring) and metrics are unaffected: they are
// updated synchronously and stay exact; only callback delivery is
// asynchronous. The record ring keeps only the newest records across all
// workloads; the callbacks receive every record of every workload, less
// what a full sink ring drops (counted).

// SinkStats is the async sink's delivery accounting.
type SinkStats struct {
	// Enqueued counts events offered to the sink (delivered + dropped +
	// still queued).
	Enqueued uint64 `json:"enqueued"`
	// Delivered counts callbacks that ran.
	Delivered uint64 `json:"delivered"`
	// Dropped counts events lost because the ring was full.
	Dropped uint64 `json:"dropped"`
}

type sinkKind uint8

const (
	sinkViolation sinkKind = iota
	sinkShadow
	sinkTap
)

type tapEvent struct {
	workload, user, method, path string
	obj                          object.Object
}

type sinkEvent struct {
	kind sinkKind
	rec  ViolationRecord
	tap  tapEvent
}

type asyncSink struct {
	ch        chan sinkEvent
	quit      chan struct{}
	done      chan struct{}
	closed    atomic.Bool
	enqueued  atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64

	// drained, when non-nil, is the channel flush waits on; whoever
	// settles the last outstanding event closes it. drainMu orders that
	// close after a flusher's own check, so no wake-up is lost.
	drainMu sync.Mutex
	drained chan struct{}

	onViolate func(ViolationRecord)
	onShadow  func(ViolationRecord)
	tap       func(workload, user, method, path string, obj object.Object)
}

func newAsyncSink(buffer int, onViolate, onShadow func(ViolationRecord),
	tap func(workload, user, method, path string, obj object.Object)) *asyncSink {
	s := &asyncSink{
		ch:        make(chan sinkEvent, buffer),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		onViolate: onViolate,
		onShadow:  onShadow,
		tap:       tap,
	}
	go s.run()
	return s
}

func (s *asyncSink) run() {
	defer close(s.done)
	for {
		select {
		case ev := <-s.ch:
			s.dispatch(ev)
		case <-s.quit:
			// Drain what is already queued, then exit.
			for {
				select {
				case ev := <-s.ch:
					s.dispatch(ev)
				default:
					return
				}
			}
		}
	}
}

func (s *asyncSink) dispatch(ev sinkEvent) {
	switch ev.kind {
	case sinkViolation:
		if s.onViolate != nil {
			s.onViolate(ev.rec)
		}
	case sinkShadow:
		if s.onShadow != nil {
			s.onShadow(ev.rec)
		}
	case sinkTap:
		if s.tap != nil {
			s.tap(ev.tap.workload, ev.tap.user, ev.tap.method, ev.tap.path, ev.tap.obj)
		}
	}
	s.delivered.Add(1)
	s.settle()
}

// enqueue offers an event; a full ring drops it (counted), never blocks.
// After close, events are delivered synchronously so late stragglers
// are not lost.
func (s *asyncSink) enqueue(ev sinkEvent) {
	s.enqueued.Add(1)
	if s.closed.Load() {
		s.dispatch(ev)
		return
	}
	select {
	case s.ch <- ev:
	default:
		s.dropped.Add(1)
		s.settle()
	}
}

func (s *asyncSink) stats() SinkStats {
	return SinkStats{
		Enqueued:  s.enqueued.Load(),
		Delivered: s.delivered.Load(),
		Dropped:   s.dropped.Load(),
	}
}

// idle reports that every event enqueued so far is delivered or dropped.
func (s *asyncSink) idle() bool {
	st := s.stats()
	return st.Delivered+st.Dropped >= st.Enqueued
}

// settle wakes the flushers once the sink is idle. Every delivery and
// every drop calls it after counting itself, so the event that makes the
// sink idle always sees it.
func (s *asyncSink) settle() {
	if !s.idle() {
		return
	}
	s.drainMu.Lock()
	if s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
	s.drainMu.Unlock()
}

// flush waits until every enqueued event is delivered or dropped,
// bounded by the timeout. It reports whether the sink fully drained.
func (s *asyncSink) flush(timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		s.drainMu.Lock()
		if s.idle() {
			s.drainMu.Unlock()
			return true
		}
		if s.drained == nil {
			s.drained = make(chan struct{})
		}
		wake := s.drained
		s.drainMu.Unlock()
		select {
		case <-wake:
		case <-timer.C:
			return s.idle()
		}
	}
}

// close stops the worker after draining queued events. Call once the
// proxy has stopped serving; a request racing the close may have its
// event delivered synchronously instead.
func (s *asyncSink) close() {
	if !s.closed.Swap(true) {
		close(s.quit)
	}
	<-s.done
	// A send racing the close flag can land after the worker drained;
	// sweep the ring once more so nothing is silently stranded.
	for {
		select {
		case ev := <-s.ch:
			s.dispatch(ev)
		default:
			return
		}
	}
}
