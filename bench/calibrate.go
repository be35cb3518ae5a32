package main

import (
	"encoding/json"
	"runtime"
	"sync"
	"time"
)

// The reference box is shared: neighbours slow the same code by 10–30 %
// for seconds to minutes at a time, in episodes no 18 s run averages
// out. On the 60 runs of one ten-seed set every time-based metric as
// measured spread 25–31 % on its worst workload (distance between the
// quartiles ÷ median), beyond the largest bound a benchmark may declare.
// So every timed interval is preceded by a short calibration — all
// client goroutines run encoding/json.Valid over the benign corpus,
// which is standard-library code no change to the product can move —
// and every declared time is divided by how much slower than the
// reference speed the calibration ran: seconds *at reference speed*,
// and rates per such second. On the same 60 runs those spread 1–8 %
// (set-up and idle publishes up to 13 %). The times as measured are
// printed beside them by every output, because the constant below makes
// the declared unit this box's, not any box's. Counts (allocations,
// bytes, heap) are not scaled.
const (
	// referencePassNs defines reference speed: the CPU time one
	// goroutine of the quiet reference box takes to validate the corpus
	// once. It only fixes the unit; any constant would do.
	referencePassNs = 1.45e6
	calibrateFor    = 50 * time.Millisecond
	// calibrationAge is how long the traced run's passes and probes,
	// which are too short to calibrate before each, trust a calibration.
	calibrationAge = 100 * time.Millisecond
)

type calibrator struct {
	bodies [][]byte
	last   float64   // the latest slowdown
	at     time.Time // when it was measured
}

func newCalibrator(in *inputs) *calibrator {
	c := &calibrator{}
	for i := range in.json {
		c.bodies = append(c.bodies, in.json[i].body)
	}
	return c
}

// slowdown measures how many times slower than reference speed the
// machine runs right now (1 = reference speed). Divide times by it and
// multiply rates by it.
func (c *calibrator) slowdown() float64 {
	// A collection still marking from the interval before would be
	// charged to the calibration's CPU time; finish it first. This also
	// starts every slice from the same collector state.
	runtime.GC()
	n := clientCount()
	passes := make([]int, n)
	var wg sync.WaitGroup
	cpuBefore := cpuTime()
	deadline := time.Now().Add(calibrateFor)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for _, b := range c.bodies {
					if !json.Valid(b) {
						panic("bench: generated JSON body is not valid JSON")
					}
				}
				passes[g]++
			}
		}(g)
	}
	wg.Wait()
	cpu := cpuTime() - cpuBefore
	total := 0
	for _, p := range passes {
		total += p
	}
	c.last, c.at = float64(cpu)/float64(total)/referencePassNs, time.Now()
	return c.last
}

// recent is the latest slowdown, measured again once it is older than
// calibrationAge.
func (c *calibrator) recent() float64 {
	if time.Since(c.at) > calibrationAge {
		return c.slowdown()
	}
	return c.last
}
