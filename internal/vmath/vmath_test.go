package vmath

import (
	"math"
	"math/rand/v2"
	"testing"
)

// checkLog runs Log over a copy of x and compares every element with
// math.Log bit for bit.
func checkLog(t *testing.T, x []float64) {
	t.Helper()
	got := append([]float64(nil), x...)
	Log(got)
	for i, v := range x {
		if want := math.Log(v); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("Log(%v) [bits %#016x, element %d of %d] = %v [%#016x], math.Log gives %v [%#016x]",
				v, math.Float64bits(v), i, len(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// specials are the inputs archLog settles outside its main path, the
// boundaries of the kernel's domain and the sqrt(2)/2 reduction boundary.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000123),
	math.SmallestNonzeroFloat64, math.Float64frombits(0x000FFFFFFFFFFFFF),
	math.Float64frombits(0x0010000000000000), math.MaxFloat64, -1, -math.MaxFloat64,
	1, 2, 0.5, math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Nextafter(math.Sqrt2/2, 1),
	7.07106781186547524401e-01, math.E, 1 - 0x1p-53, 0x1p-53,
}

func TestLogSpecials(t *testing.T) {
	checkLog(t, specials)
	for _, v := range specials {
		for _, w := range specials {
			checkLog(t, []float64{v, w, 3, v, w})
		}
	}
}

func TestLogMatchesMathLog(t *testing.T) {
	src := rand.New(rand.NewPCG(1, 2))
	n := 1 << 16
	if testing.Short() {
		n = 1 << 12
	}
	buf := make([]float64, 0, 64)
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for j := 0; j < 64; j++ {
			switch j % 4 {
			case 0: // the uniforms every arrival fill takes the log of
				buf = append(buf, 1-src.Float64())
			case 1: // -log(u), the second log of a Weibull draw
				buf = append(buf, -math.Log(1-src.Float64()))
			case 2: // any positive normal float
				buf = append(buf, math.Float64frombits(0x0010000000000000+src.Uint64N(0x7FE0000000000000)))
			default: // powers of two and their neighbours
				p := math.Ldexp(1, src.IntN(2046)-1022)
				buf = append(buf, math.Float64frombits(math.Float64bits(p)+uint64(src.IntN(3))-1))
			}
		}
		checkLog(t, buf)
	}
}

// FuzzLog holds Log to math.Log for any bit pattern, alone and inside a
// slice of 1–9 elements whose other elements are arbitrary too.
func FuzzLog(f *testing.F) {
	for i, v := range specials {
		f.Add(math.Float64bits(v), uint64(i)*0x9e3779b97f4a7c15, uint8(i))
	}
	f.Fuzz(func(t *testing.T, bits, seed uint64, n uint8) {
		x := math.Float64frombits(bits)
		checkLog(t, []float64{x})
		src := rand.New(rand.NewPCG(seed, bits))
		buf := make([]float64, 1+int(n)%9)
		for i := range buf {
			switch src.IntN(3) {
			case 0:
				buf[i] = math.Float64frombits(src.Uint64())
			case 1:
				buf[i] = 1 - src.Float64()
			default:
				buf[i] = x
			}
		}
		buf[src.IntN(len(buf))] = x
		checkLog(t, buf)
	})
}

func BenchmarkLog(b *testing.B) {
	src := rand.New(rand.NewPCG(2, 3))
	in := make([]float64, 64)
	for i := range in {
		in[i] = 1 - src.Float64()
	}
	buf := make([]float64, len(in))
	b.SetBytes(8 * int64(len(in)))
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		Log(buf)
	}
}

func BenchmarkMathLog(b *testing.B) {
	src := rand.New(rand.NewPCG(2, 3))
	in := make([]float64, 64)
	for i := range in {
		in[i] = 1 - src.Float64()
	}
	buf := make([]float64, len(in))
	b.SetBytes(8 * int64(len(in)))
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		for j, v := range buf {
			buf[j] = math.Log(v)
		}
	}
}
