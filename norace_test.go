//go:build !race

package kremlin_test

const raceEnabled = false
