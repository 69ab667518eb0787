//go:build !race

package starburst

// raceEnabled is true under the race detector (see race_test.go).
const raceEnabled = false
