//go:build race

package proxy

// raceAllocSlack is what the race detector adds to a per-request
// allocation count: under it sync.Pool drops a quarter of its puts, so
// the pooled buffers are reallocated now and then (measured +1 to +2).
const raceAllocSlack = 2

// raceDenyAllocSlack is raceAllocSlack for a denial, which takes fmt's
// pooled printer once per violation and encoding/json's pooled encoder
// besides the body buffer (measured +8).
const raceDenyAllocSlack = 10
