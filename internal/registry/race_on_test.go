//go:build race

package registry

// raceEnabled reports a build under the race detector, which slows the
// single-goroutine heap measurements ten-fold and adds nothing to them.
const raceEnabled = true
