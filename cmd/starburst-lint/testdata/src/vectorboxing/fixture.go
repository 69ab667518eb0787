//lintfixture:path repro/internal/exec/fixvec

// Package fixvec seeds vector-boxing violations under the simulated
// internal/exec import path: kernel-named functions that re-box values
// per element or iterate raw column lanes past the selection vector.
package fixvec

import "repro/internal/datum"

// vec mirrors datum.ColVec's typed-lane surface; the analyzer matches
// the lane field names.
type vec struct {
	Ints   []int64
	Floats []float64
}

func boxingKernel(v vec, sel []int, out []datum.Value) {
	for _, i := range sel {
		out[i] = datum.NewInt(v.Ints[i]) // want vector-boxing "boxes per-element values through datum.NewInt"
	}
}

func rangeLaneKernel(v vec, keep []bool) {
	for i := range v.Ints { // want vector-boxing "ranges directly over the Ints lane"
		keep[i] = true
	}
}

func cleanKernel(v vec, n int, sel []int) int64 {
	// The two sanctioned loop shapes: range the selection, or index up
	// to the live count.
	acc := int64(0)
	if sel != nil {
		for _, i := range sel {
			acc += v.Ints[i]
		}
		return acc
	}
	for i := 0; i < n; i++ {
		acc += v.Ints[i]
	}
	return acc
}

// A join kernel compacts candidate (probe row, build row) pairs; the
// pair lists play the selection vector's part.
func joinEqBoxedKernel(pv, bv *datum.ColVec, pp, pb []int) int {
	k := 0
	for c, i := range pp {
		x := pv.ValueAt(i)     // want vector-boxing "boxes per-element values through datum.ValueAt"
		y := bv.ValueAt(pb[c]) // want vector-boxing "boxes per-element values through datum.ValueAt"
		if datum.Equal(x, y) {
			pp[k], pb[k] = i, pb[c]
			k++
		}
	}
	return k
}

func joinEqCleanKernel(pv, bv vec, pp, pb []int) int {
	k := 0
	for c, i := range pp {
		if pv.Ints[i] == bv.Ints[pb[c]] {
			pp[k], pb[k] = i, pb[c]
			k++
		}
	}
	return k
}

func materializeRows(v vec, sel []int) []datum.Value {
	// Not kernel-named: boundary helpers box by design.
	out := make([]datum.Value, 0, len(sel))
	for _, i := range sel {
		out = append(out, datum.NewFloat(v.Floats[i]))
	}
	return out
}

func suppressedKernel(v vec) int64 {
	acc := int64(0)
	//lint:ignore vector-boxing fixture: demonstrates a justified suppression
	for _, x := range v.Ints {
		acc += x
	}
	return acc
}
