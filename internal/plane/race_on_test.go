//go:build race

package plane

// raceAllocSlack is what the race detector adds to a per-request
// allocation count, the proxy's figure: under it sync.Pool drops a
// quarter of its puts, so the pooled buffers are reallocated now and
// then.
const raceAllocSlack = 2
