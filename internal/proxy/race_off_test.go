//go:build !race

package proxy

const raceAllocSlack, raceDenyAllocSlack, raceCopySlack = 0, 0, 0
