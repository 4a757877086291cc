// Package vmath evaluates elementary functions over slices, bit for bit as
// the scalar functions of package math evaluate them element by element.
//
// The simulator draws every failure arrival through a logarithm, and every
// Weibull arrival through an exponential too, so the batched arrival fills
// of internal/rng and internal/dist spend most of their time in math.Log
// and math.Exp. Log and Exp run that work several lanes at a time without
// changing a single result bit. On amd64 they execute the instructions of
// Go's own assembly kernels as packed operations in the same order and with
// the same operand pairing:
//
//   - Log runs math.archLog ($GOROOT/src/math/log_amd64.s) four lanes at a
//     time with AVX2, then two at a time with SSE2 on a remaining pair.
//   - Exp runs the FMA path of math.archExp ($GOROOT/src/math/exp_amd64.s)
//     four lanes at a time with AVX2 and FMA3.
//
// Every element outside a kernel's domain, and every element of a tail
// shorter than a kernel's width, goes through math.Log or math.Exp itself.
// A CPUID probe at init enables the four-lane kernels. math.Exp leaves its
// FMA path when the CPU lacks FMA or GODEBUG=cpu.fma=off says so, so the
// probe enables the Exp kernel only if it reproduces math.Exp on a fixed
// set of inputs on which the two paths differ. FuzzLog and FuzzExp pin the
// equality; other architectures run math.Log and math.Exp on every element.
package vmath

import "math"

// kernelSet says which four-lane kernels run. The pair kernel of Log needs
// only SSE2, which every amd64 CPU has.
type kernelSet struct {
	logQuads bool // the CPU has AVX2
	expQuads bool // the CPU has AVX2 and FMA3, and math.Exp takes its FMA path
}

// kernels is set once at init; the package tests switch it to cover the
// pair kernel and the scalar fallbacks on any CPU.
var kernels = probeKernels()

// expProbe holds inputs on which the FMA and the non-FMA path of
// math.archExp give different bits, two quads of them.
var expProbe = [8]float64{-17, -6.53, -1.01, -0.2, 0.01, 0.31, 3.12, 19}

func probeKernels() kernelSet {
	avx2, fma := cpuFeatures()
	k := kernelSet{logQuads: avx2}
	if avx2 && fma {
		x := expProbe
		k.expQuads = expQuads(x[:]) == len(x)
		for i, v := range expProbe {
			if math.Float64bits(x[i]) != math.Float64bits(math.Exp(v)) {
				k.expQuads = false
			}
		}
	}
	return k
}

// Log replaces every element of x with math.Log of that element, with
// exactly the bits math.Log returns (NaN payloads included).
func Log(x []float64) {
	for {
		if kernels.logQuads {
			x = x[logQuads(x):]
			x = x[logPairs(x[:min(len(x), 2)]):]
		} else {
			x = x[logPairs(x):]
		}
		if len(x) == 0 {
			return
		}
		// A zero, subnormal, negative, infinite or NaN element stopped the
		// kernels (or x had one element left): it takes the scalar path.
		x[0] = math.Log(x[0])
		x = x[1:]
	}
}

// Exp replaces every element of x with math.Exp of that element, with
// exactly the bits math.Exp returns.
func Exp(x []float64) {
	for {
		if kernels.expQuads {
			x = x[expQuads(x):]
		}
		if len(x) == 0 {
			return
		}
		// An element of magnitude 700 or more, a NaN or a tail element (or
		// every element, without the kernel) takes the scalar path.
		x[0] = math.Exp(x[0])
		x = x[1:]
	}
}
