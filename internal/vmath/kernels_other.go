//go:build !amd64

package vmath

// The portable fallbacks of the amd64 kernels: they process no element, so
// Log and Exp send every element through math.Log and math.Exp.

func logPairs(x []float64) int { return 0 }
func logQuads(x []float64) int { return 0 }
func expQuads(x []float64) int { return 0 }

func cpuFeatures() (avx2, fma bool) { return false, false }
