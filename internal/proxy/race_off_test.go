//go:build !race

package proxy

const raceAllocSlack, raceDenyAllocSlack = 0, 0
