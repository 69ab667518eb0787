//go:build race

package starburst

// raceEnabled is true under the race detector, which slows planning
// about tenfold; tests skip their costliest compiles there.
const raceEnabled = true
