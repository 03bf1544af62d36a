//go:build !race

package runner_test

// raceEnabled is false without the race detector; see race_test.go.
const raceEnabled = false
