//lintfixture:path repro/fixdatum

// Package fixdatum seeds datum-compare violations: reflect.DeepEqual
// over types holding datum.Values.
package fixdatum

import (
	"reflect"

	"repro/internal/datum"
)

// snapshot holds Values behind a slice.
type snapshot struct {
	name string
	rows []datum.Row
}

func deepValue(a, b datum.Value) bool { return reflect.DeepEqual(a, b) } // want datum-compare "reflect.DeepEqual over"
func deepRow(a, b datum.Row) bool     { return reflect.DeepEqual(a, b) } // want datum-compare "STRING payloads compare by address"
func deepRows(a, b []datum.Row) bool  { return reflect.DeepEqual(a, b) } // want datum-compare "reflect.DeepEqual over"
func deepStruct(a, b *snapshot) bool  { return reflect.DeepEqual(a, b) } // want datum-compare "reflect.DeepEqual over"

func deepMap(a map[string]datum.Row, b any) bool { return reflect.DeepEqual(a, b) } // want datum-compare "reflect.DeepEqual over"

func deepClean(a, b []string) bool  { return reflect.DeepEqual(a, b) }
func rowsClean(a, b datum.Row) bool { return datum.RowsEqual(a, b) }

func suppressed(a, b datum.Row) bool {
	//lint:ignore datum-compare fixture: demonstrates a justified suppression
	return reflect.DeepEqual(a, b)
}
