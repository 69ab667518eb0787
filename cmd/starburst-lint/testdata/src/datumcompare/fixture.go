//lintfixture:path repro/fixdatum

// Package fixdatum seeds datum-compare violations: == / != on
// datum.Value, reflect.DeepEqual over types holding Values, and map
// types keyed by them.
package fixdatum

import (
	"reflect"

	"repro/internal/datum"
)

func firing(a, b datum.Value) bool  { return a == b } // want datum-compare "use datum.Compare or datum.Equal"
func firing2(a, b datum.Value) bool { return a != b } // want datum-compare "compared with !="

func clean(a, b datum.Value) bool  { return datum.Equal(a, b) }
func clean2(a, b datum.Value) bool { return a.Type() == b.Type() }

func suppressed(a, b datum.Value) bool {
	//lint:ignore datum-compare fixture: demonstrates a justified suppression
	return a == b
}

// keyed holds a Value inline; snapshot holds one behind a slice.
type keyed struct {
	id int
	v  datum.Value
}

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

var (
	byValue  map[datum.Value]int       // want datum-compare "map keyed by"
	byStruct = map[keyed]bool{}        // want datum-compare "key by datum.RowKey or datum.Hash"
	byArray  map[[2]datum.Value]string // want datum-compare "map keyed by"

	byPointer map[*datum.Value]int   // clean: a pointer key is identity, on purpose
	byRowKey  map[string]datum.Value // clean: Values as map values
	byID      map[int]keyed          // clean
)

func nested() map[int]map[datum.Value]bool { return nil } // want datum-compare "map keyed by"
