//go:build race

package starburst

// raceEnabled is true under the race detector, which makes sync.Pool
// drop a share of what it is given on purpose; byte counts of pooled
// paths are then not stable and their tests skip the byte assertion.
const raceEnabled = true
