//go:build !race

package main

// raceBuild reports a race-detector build, whose timings are too slow and
// uneven to assert on.
const raceBuild = false
