//go:build race

package cache

// raceEnabled reports that the race detector is instrumenting this
// build. Allocation-count regressions skip under it: instrumentation
// perturbs what the runtime attributes to the measured function.
const raceEnabled = true
