//go:build !race

package plane

const raceAllocSlack = 0
