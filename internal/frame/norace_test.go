//go:build !race

package frame

const raceEnabled = false
