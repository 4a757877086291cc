package vmath

import (
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
)

// probed is the kernel set the init probe chose.
var probed = kernels

// eachKernelSet runs f once with the probed kernels and, when they include
// a four-lane kernel, once more with none, so that the SSE2 pair kernel and
// the scalar fallbacks stay covered on AVX2 hosts. It restores the probed
// set afterwards.
func eachKernelSet(f func()) {
	defer func() { kernels = probed }()
	sets := []kernelSet{probed}
	if probed != (kernelSet{}) {
		sets = append(sets, kernelSet{})
	}
	for _, k := range sets {
		kernels = k
		f()
	}
}

// check runs batch over a copy of x and compares every element with
// scalar of the original element, bit for bit.
func check(t *testing.T, name string, batch func([]float64), scalar func(float64) float64, x []float64) {
	t.Helper()
	got := append([]float64(nil), x...)
	batch(got)
	for i, v := range x {
		if want := scalar(v); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s(%v) [bits %#016x, element %d of %d, kernels %+v] = %v [%#016x], math.%[1]s gives %v [%#016x]",
				name, v, math.Float64bits(v), i, len(x), kernels, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

func checkLog(t *testing.T, x []float64) { t.Helper(); check(t, "Log", Log, math.Log, x) }
func checkExp(t *testing.T, x []float64) { t.Helper(); check(t, "Exp", Exp, math.Exp, x) }

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

// expSpecials are the inputs archExp settles outside its main path, the
// boundaries of the kernel's |x| < 700 domain and of archExp's overflow,
// denormal and underflow branches, and the probe inputs.
var expSpecials = append([]float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000123),
	700, -700, math.Nextafter(700, 0), math.Nextafter(-700, 0), 709.78, 7.09782712893384e+02,
	math.Nextafter(7.09782712893384e+02, 1000), 710, -708.4, -709, -740, -745.13321910194122,
	-746, 1e4, -1e4, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300,
	1, -1, 0.5, -0.5, math.Ln2, -math.Ln2, 0.5 * math.Ln2, 1.5 * math.Ln2, -1.5 * math.Ln2,
	1 / math.Log2E, 1023 * math.Ln2, -1022 * math.Ln2,
}, expProbe[:]...)

// mixes runs check over every special alone and over slices of 5 and 7
// elements that put each pair of specials into quads, pairs and tails.
func mixes(t *testing.T, check func(*testing.T, []float64), specials []float64, filler float64) {
	check(t, specials)
	for _, v := range specials {
		for _, w := range specials {
			check(t, []float64{v, w, filler, v, w})
			check(t, []float64{filler, v, filler, filler, w, filler, v})
		}
	}
}

func TestLogSpecials(t *testing.T) {
	eachKernelSet(func() { mixes(t, checkLog, specials, 3) })
}

func TestExpSpecials(t *testing.T) {
	eachKernelSet(func() { mixes(t, checkExp, expSpecials, -3) })
}

func TestLogMatchesMathLog(t *testing.T) {
	n := 1 << 18 // slices of 1–17 elements: about 2.4M elements
	if testing.Short() {
		n = 1 << 14
	}
	eachKernelSet(func() {
		src := rand.New(rand.NewPCG(1, 2))
		buf := make([]float64, 0, 17)
		for i := 0; i < n; i++ {
			buf = buf[:0]
			for j := 0; j < 1+i%17; j++ {
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
	})
}

func TestExpMatchesMathExp(t *testing.T) {
	n := 1 << 18 // slices of 1–17 elements: about 2.4M elements
	if testing.Short() {
		n = 1 << 14
	}
	eachKernelSet(func() {
		src := rand.New(rand.NewPCG(3, 4))
		buf := make([]float64, 0, 17)
		for i := 0; i < n; i++ {
			buf = buf[:0]
			for j := 0; j < 1+i%17; j++ {
				switch j % 4 {
				case 0: // yf * log(-log(u)), the exponent of a Weibull draw
					yf := src.Float64() - 0.5
					buf = append(buf, yf*math.Log(-math.Log(1-src.Float64())))
				case 1: // the kernel's whole domain
					buf = append(buf, 1400*src.Float64()-700)
				case 2: // small arguments near the reduction's boundaries
					buf = append(buf, float64(src.IntN(64)-32)*math.Ln2/2+src.NormFloat64()*0x1p-40)
				default: // any float
					buf = append(buf, math.Float64frombits(src.Uint64()))
				}
			}
			checkExp(t, buf)
		}
	})
}

// fmaOff reports whether GODEBUG switches off a CPU feature math.Exp's FMA
// path needs.
func fmaOff() bool {
	for _, s := range strings.Split(os.Getenv("GODEBUG"), ",") {
		switch s {
		case "cpu.fma=off", "cpu.avx=off", "cpu.all=off":
			return true
		}
	}
	return false
}

// TestExpProbe holds the probe to math.Exp's choice of path: the Exp kernel
// runs exactly when the CPU has AVX2 and FMA3 and math.Exp takes its FMA
// path. CI also runs the package under GODEBUG=cpu.fma=off, which must
// switch the kernel off.
func TestExpProbe(t *testing.T) {
	avx2, fma := cpuFeatures()
	if want := avx2 && fma && !fmaOff(); probed.expQuads != want {
		t.Fatalf("Exp kernel on = %v; want %v (AVX2 %v, FMA %v, GODEBUG=%q)",
			probed.expQuads, want, avx2, fma, os.Getenv("GODEBUG"))
	}
	if probed.logQuads != avx2 {
		t.Fatalf("Log quad kernel on = %v; the CPU has AVX2: %v", probed.logQuads, avx2)
	}
}

// fuzzSlice builds a slice of 1–17 elements, each an arbitrary bit
// pattern, x, or a draw of typical, whose element at a random index is x.
func fuzzSlice(x float64, seed, bits uint64, n uint8, typical func(*rand.Rand) float64) []float64 {
	src := rand.New(rand.NewPCG(seed, bits))
	buf := make([]float64, 1+int(n)%17)
	for i := range buf {
		switch src.IntN(3) {
		case 0:
			buf[i] = math.Float64frombits(src.Uint64())
		case 1:
			buf[i] = typical(src)
		default:
			buf[i] = x
		}
	}
	buf[src.IntN(len(buf))] = x
	return buf
}

// FuzzLog holds Log to math.Log for any bit pattern, alone and inside a
// slice of 1–17 elements whose other elements are arbitrary too, under
// every kernel set.
func FuzzLog(f *testing.F) {
	for i, v := range specials {
		f.Add(math.Float64bits(v), uint64(i)*0x9e3779b97f4a7c15, uint8(i))
	}
	f.Fuzz(func(t *testing.T, bits, seed uint64, n uint8) {
		x := math.Float64frombits(bits)
		buf := fuzzSlice(x, seed, bits, n, func(src *rand.Rand) float64 { return 1 - src.Float64() })
		eachKernelSet(func() {
			checkLog(t, []float64{x})
			checkLog(t, buf)
		})
	})
}

// FuzzExp is FuzzLog's twin: it holds Exp to math.Exp.
func FuzzExp(f *testing.F) {
	for i, v := range expSpecials {
		f.Add(math.Float64bits(v), uint64(i)*0x9e3779b97f4a7c15, uint8(i))
	}
	f.Fuzz(func(t *testing.T, bits, seed uint64, n uint8) {
		x := math.Float64frombits(bits)
		buf := fuzzSlice(x, seed, bits, n, func(src *rand.Rand) float64 { return 40*src.Float64() - 20 })
		eachKernelSet(func() {
			checkExp(t, []float64{x})
			checkExp(t, buf)
		})
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

func BenchmarkExp(b *testing.B) {
	src := rand.New(rand.NewPCG(2, 3))
	in := make([]float64, 64)
	for i := range in {
		in[i] = 40*src.Float64() - 20
	}
	buf := make([]float64, len(in))
	b.SetBytes(8 * int64(len(in)))
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		Exp(buf)
	}
}

func BenchmarkMathExp(b *testing.B) {
	src := rand.New(rand.NewPCG(2, 3))
	in := make([]float64, 64)
	for i := range in {
		in[i] = 40*src.Float64() - 20
	}
	buf := make([]float64, len(in))
	b.SetBytes(8 * int64(len(in)))
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		for j, v := range buf {
			buf[j] = math.Exp(v)
		}
	}
}
