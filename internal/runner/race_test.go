//go:build race

package runner_test

// raceEnabled is true under the race detector, whose sync.Pool drops a
// random share of what it is given (program.Builder pools its
// instruction buffers), so allocation counts over a factory build vary
// between runs.
const raceEnabled = true
