//go:build race

package analysis

// raceEnabled reports whether the race detector is compiled in; wall-clock
// budgets skip under it because instrumentation slows the run unevenly.
const raceEnabled = true
