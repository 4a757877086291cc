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
// logarithms go through vmath.Log, bit-exact to math.Log, and Weibull's
// exponentials through vmath.Exp, bit-exact to math.Exp; every other law
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
// parts of the exponent. fill performs those operations with both
// logarithms batched through vmath.Log, the exponential through vmath.Exp,
// the exponent split done once, and x^yi for yi <= 2 formed without the
// Frexp/Ldexp scaling where that rounds to the same bits (powGeneral).
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
	// a1 holds Exp(yf*Log(x)), math.Pow's factor for the fraction part of
	// the exponent: 1 when there is none.
	var a1 [weibullChunk]float64
	if yf == 0 {
		for i := range a1 {
			a1[i] = 1
		}
	}
	for len(dst) > 0 {
		x := dst[:min(len(dst), weibullChunk)]
		dst = dst[len(x):]
		src.Float64OpenFill(x)
		vmath.Log(x)
		for i, l := range x {
			x[i] = -l
		}
		if yf != 0 {
			a := a1[:len(x)]
			copy(a, x)
			vmath.Log(a)
			for i, l := range a {
				a[i] = yf * l
			}
			vmath.Exp(a)
		}
		for i, xv := range x {
			var p float64
			if xv == 1 {
				p = math.Pow(xv, y)
			} else {
				p = powGeneral(xv, a1[i], int64(yi))
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
// a1 == math.Exp(yf * math.Log(x)), or 1 when yf == 0.
func powGeneral(x, a1 float64, yi int64) float64 {
	// The squaring loop below rounds a1*x1 (yi 1) or a1*(x1*x1) (yi 2),
	// with x1 = x/2^xe, and scales the result by 2^xe or 2^(2xe); for yi 0
	// it returns Ldexp(a1, 0), which is a1. Scaling by a power of two
	// commutes with rounding inside the normal range, so while every
	// factor and product stays well inside it, the same products of x
	// itself round to the same bits, without Frexp and Ldexp.
	switch yi {
	case 0:
		return a1
	case 1, 2:
		xn := x
		if yi == 2 {
			xn = x * x
		}
		if p := a1 * xn; 0x1p-1000 < min(a1, xn, p) && max(a1, xn, p) < 0x1p1000 {
			return p
		}
	}
	// ans = a1 * 2**ae
	ae := 0
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
