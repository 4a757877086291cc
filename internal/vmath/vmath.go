// Package vmath evaluates elementary functions over slices, bit for bit as
// the scalar functions of package math evaluate them element by element.
//
// The simulator draws every failure arrival through a logarithm, so the
// batched arrival fills of internal/rng and internal/dist spend most of
// their time in math.Log. Log runs that work two lanes at a time without
// changing a single result bit: on amd64 it executes the instructions of
// Go's own assembly logarithm (math.archLog, $GOROOT/src/math/log_amd64.s)
// as packed SSE2 operations in the same order and with the same operand
// pairing, and every element outside that kernel's domain goes through
// math.Log itself. FuzzLog pins the equality.
package vmath

import "math"

// Log replaces every element of x with math.Log of that element, with
// exactly the bits math.Log returns (NaN payloads included).
func Log(x []float64) {
	for {
		x = x[logPairs(x):]
		if len(x) == 0 {
			return
		}
		// A zero, subnormal, negative, infinite or NaN element stopped the
		// kernel (or x had one element left): it takes the scalar path.
		x[0] = math.Log(x[0])
		x = x[1:]
	}
}
