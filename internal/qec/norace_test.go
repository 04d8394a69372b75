//go:build !race

package qec

const raceEnabled = false
