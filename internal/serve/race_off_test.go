//go:build !race

package serve

// raceDetector reports whether the tests run under the race detector.
const raceDetector = false
