//go:build !race

package voronoi

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
