package dist

import (
	"math"

	"abftckpt/internal/rng"
	"abftckpt/internal/vmath"
)

// Fill fills dst with the running sums of successive draws of d on src,
// starting from base: element i is exactly the value base reaches after
// i+1 additions of d.Sample(src), the same draws added in the same order,
// and src ends in the state those draws leave it in (pinned by
// TestFillMatchesSample). It is how the simulator materializes failure
// arrival times. The exponential and Weibull laws draw in batches whose
// logarithms go through vmath.Log, bit-exact to math.Log; every other law
// adds Sample draws one by one.
func Fill(d Distribution, src *rng.Source, dst []float64, base float64) {
	switch d := d.(type) {
	case Exponential:
		src.ExpFillFrom(dst, -d.mtbf, base)
	case Weibull:
		d.fill(src, dst, base)
	default:
		for i := range dst {
			base += d.Sample(src)
			dst[i] = base
		}
	}
}

// weibullChunk is the length of the batched Weibull fill's stack scratch.
const weibullChunk = 64

// fill is Fill for the Weibull law. Sample evaluates
// scale * math.Pow(-math.Log(u), 1/shape); for a u whose -log is not 1 and
// an exponent 1/shape that math.Pow does not settle first (1/shape is
// neither 1 nor 0.5, and below 2^63), math.Pow computes
// Ldexp(Exp(yf*Log(x)) * x^yi, ...) with yi, yf the integer and fraction
// parts of the exponent. fill performs exactly those operations, with both
// logarithms batched through vmath.Log and the exponent split done once.
func (w Weibull) fill(src *rng.Source, dst []float64, base float64) {
	y := w.invShape
	yi, yf := math.Modf(y)
	if y == 1 || y == 0.5 || yi >= 1<<63 { // yi is +Inf for an infinite y
		for i := range dst {
			base += w.Sample(src)
			dst[i] = base
		}
		return
	}
	if yf > 0.5 {
		yf--
		yi++
	}
	var logx [weibullChunk]float64
	for len(dst) > 0 {
		x := dst[:min(len(dst), weibullChunk)]
		dst = dst[len(x):]
		src.Float64OpenFill(x)
		vmath.Log(x)
		for i, l := range x {
			x[i] = -l
		}
		if yf != 0 {
			copy(logx[:], x)
			vmath.Log(logx[:len(x)])
		}
		for i, xv := range x {
			var p float64
			if xv == 1 {
				p = math.Pow(xv, y)
			} else {
				p = powGeneral(xv, logx[i], int64(yi), yf)
			}
			// The conversion rounds the product before the add, as the
			// separate Sample call does, so no target fuses the two.
			base += float64(w.scale * p)
			x[i] = base
		}
	}
}

// powGeneral is the general path of math.Pow(x, y) for x > 0, x != 1 and
// y > 0 split into yi + yf (yf already shifted into [-0.5, 0.5]), given
// logx == math.Log(x) (unused when yf == 0).
func powGeneral(x, logx float64, yi int64, yf float64) float64 {
	// ans = a1 * 2**ae
	a1 := 1.0
	ae := 0
	if yf != 0 {
		a1 = math.Exp(yf * logx)
	}
	// ans *= x**yi by successive squarings of x.
	x1, xe := math.Frexp(x)
	for i := yi; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return math.Ldexp(a1, ae)
}
