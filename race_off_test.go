//go:build !race

package aquoman

const raceEnabled = false
