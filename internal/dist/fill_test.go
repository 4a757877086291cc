package dist

import (
	"fmt"
	"math"
	"testing"

	"abftckpt/internal/rng"
)

// fillLaws is every law Fill serves, the Weibull fill at shapes that take
// each of math.Pow's paths: an integer exponent (0.1, 0.5), a fractional
// one above and below 1/2 (0.7, 1.5, 7, 40), and the exponents Pow
// settles before its general path (1, 2).
func fillLaws() []Distribution {
	laws := []Distribution{NewExponential(100)}
	for _, k := range []float64{0.1, 0.3, 0.5, 0.7, 1, 1.5, 2, 7, 40} {
		laws = append(laws, WeibullWithMTBF(k, 100))
	}
	return append(laws,
		LogNormalWithMTBF(1.2, 100),
		GammaWithMTBF(0.5, 100), GammaWithMTBF(3, 100),
		CascadeWithMTBF(0.3, 100),
		NewEmpirical(empiricalBase()))
}

// checkFill compares Fill with the running sum of Sample on two sources
// restored to state st, bit for bit, and their states afterwards.
func checkFill(t *testing.T, d Distribution, st [4]uint64, n int, base float64) {
	t.Helper()
	var batch, scalar rng.Source
	batch.Restore(st)
	scalar.Restore(st)
	got := make([]float64, n)
	Fill(d, &batch, got, base)
	sum := base
	for i, g := range got {
		sum += d.Sample(&scalar)
		if math.Float64bits(g) != math.Float64bits(sum) {
			t.Fatalf("%v n=%d base=%v: arrival %d = %.17g, running Sample sum %.17g", d, n, base, i, g, sum)
		}
	}
	if batch.State() != scalar.State() {
		t.Fatalf("%v n=%d: generator state diverged from the Sample draws", d, n)
	}
}

// Fill must equal the running sum of Sample bit for bit, over every fill
// length the simulator uses, and leave the generator where Sample leaves it.
func TestFillMatchesSample(t *testing.T) {
	for li, d := range fillLaws() {
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			for n := 1; n <= 64; n++ {
				st := rng.New(rng.At(7, uint64(li), uint64(n))).State()
				checkFill(t, d, st, n, 0)
				checkFill(t, d, st, n, 12345.678)
			}
			// Longer than the Weibull fill's scratch: several chunks.
			checkFill(t, d, rng.New(uint64(li)).State(), 1000, 0)
		})
	}
}

// stateYielding returns a generator state whose next Float64 is m/2^53:
// the first xoshiro256** output depends on s[1] only, as rotl(s1*5, 7)*9,
// which is invertible.
func stateYielding(m uint64) [4]uint64 {
	inv := func(a uint64) uint64 { // a odd: Newton's iteration mod 2^64
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	r := (m << 11) * inv(9)
	s1 := (r>>7 | r<<57) * inv(5)
	return [4]uint64{1, s1, 2, 3}
}

// Uniforms at math.Pow's edges: one whose -log is exactly 1 takes Pow's
// x == 1 shortcut, which the Weibull fill must hand to math.Pow as well;
// the largest uniform below 1 has a -log of 2^-53, whose binary exponent
// leaves the range Pow's squaring loop tracks at a tiny shape.
func TestWeibullFillEdgeUniforms(t *testing.T) {
	var m uint64
	for c := uint64(math.Exp(-1) * (1 << 53)); ; c++ {
		if math.Log(float64(c)/(1<<53)) == -1 {
			m = c
			break
		}
	}
	st := stateYielding(m)
	var src rng.Source
	src.Restore(st)
	if u := src.Float64Open(); -math.Log(u) != 1 {
		t.Fatalf("crafted state yields %v, -log %v", u, -math.Log(u))
	}
	for _, k := range []float64{0.3, 0.7, 7} {
		checkFill(t, WeibullWithMTBF(k, 100), st, 5, 0)
	}
	checkFill(t, WeibullWithMTBF(0.006, 100), stateYielding(1<<53-1), 3, 0)
}
