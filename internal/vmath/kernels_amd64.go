package vmath

// logPairs replaces x[0:n] with their logarithms, two elements at a time,
// and returns n: the length of the longest even prefix of x made of pairs
// of positive normal floats. math.archLog computes each of those elements
// through the same operations, so the results are its results bit for bit.
//
//go:noescape
func logPairs(x []float64) int

// logQuads is logPairs four elements at a time on AVX2: it returns the
// length of the longest prefix of x made of whole quads of positive normal
// floats, replaced by their logarithms. Call it only when the CPU has AVX2.
//
//go:noescape
func logQuads(x []float64) int

// expQuads replaces x[0:n] with their exponentials, four elements at a
// time, and returns n: the length of the longest prefix of x made of whole
// quads of elements below 700 in magnitude. Each result is the one the FMA
// path of math.archExp computes. Call it only when the CPU has AVX2 and FMA.
//
//go:noescape
func expQuads(x []float64) int

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// cpuFeatures reports whether the CPU and the operating system support
// AVX2, and FMA3 besides.
func cpuFeatures() (avx2, fma bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	const (
		cpuidFMA     = 1 << 12
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
		cpuidAVX2    = 1 << 5 // leaf 7, EBX
		xcr0SSEAVX   = 1<<1 | 1<<2
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(cpuidOSXSAVE|cpuidAVX) != cpuidOSXSAVE|cpuidAVX {
		return false, false
	}
	// The OS must save the XMM and YMM registers across context switches.
	if xcr0, _ := xgetbv(); xcr0&xcr0SSEAVX != xcr0SSEAVX {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	avx2 = ebx7&cpuidAVX2 != 0
	return avx2, avx2 && ecx1&cpuidFMA != 0
}
