//go:build !race

package proxy

const raceAllocSlack = 0
