//go:build race

package repro_test

// raceEnabled reports a test binary built with -race, whose
// instrumentation allocates where the program itself does not.
const raceEnabled = true
