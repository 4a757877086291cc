package vmath

// logPairs replaces x[0:n] with their logarithms, two elements at a time,
// and returns n: the length of the longest even prefix of x made of pairs
// of positive normal floats. math.archLog computes each of those elements
// through the same operations, so the results are its results bit for bit.
//
//go:noescape
func logPairs(x []float64) int
