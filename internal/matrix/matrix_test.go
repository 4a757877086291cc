package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"abftckpt/internal/rng"
)

func TestBasicAccess(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 || m.At(0, 0) != 0 {
		t.Fatal("set/get broken")
	}
	row := m.RowView(1)
	row[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("RowView does not share storage")
	}
}

func TestBoundsPanics(t *testing.T) {
	m := NewDense(2, 2)
	cases := []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.RowView(5) },
		func() { m.View(1, 1, 2, 1) },
		func() { NewDense(0, 1) },
		func() { FromRows(nil) },
		func() { FromRows([][]float64{{1, 2}, {3}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	v := m.View(1, 1, 2, 2)
	if v.At(0, 0) != 5 || v.At(1, 1) != 9 {
		t.Fatalf("view content wrong: %v %v", v.At(0, 0), v.At(1, 1))
	}
	v.Set(0, 0, 50)
	if m.At(1, 1) != 50 {
		t.Fatal("view write did not propagate")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
	if !m.EqualApprox(m.Clone(), 0) {
		t.Fatal("clone not equal")
	}
}

func TestMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := NewDense(2, 2)
	Mul(c, a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !c.EqualApprox(want, 1e-12) {
		t.Fatalf("Mul = %+v", c)
	}
}

func TestMulAddAccumulates(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, 1}})
	b := FromRows([][]float64{{2, 0}, {0, 2}})
	c := FromRows([][]float64{{1, 1}, {1, 1}})
	MulAdd(c, a, b)
	want := FromRows([][]float64{{3, 1}, {1, 3}})
	if !c.EqualApprox(want, 1e-12) {
		t.Fatalf("MulAdd = %+v", c)
	}
}

// Parallel Mul must agree with a reference triple loop.
func TestMulMatchesReference(t *testing.T) {
	src := rng.New(1)
	a := RandDense(67, 43, src)
	b := RandDense(43, 55, src)
	got := NewDense(67, 55)
	Mul(got, a, b)
	want := NewDense(67, 55)
	for i := 0; i < 67; i++ {
		for j := 0; j < 55; j++ {
			var s float64
			for k := 0; k < 43; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if !got.EqualApprox(want, 1e-10) {
		t.Fatal("parallel Mul diverges from reference")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{4, 3}, {2, 1}})
	sum := NewDense(2, 2)
	Add(sum, a, b)
	if !sum.EqualApprox(FromRows([][]float64{{5, 5}, {5, 5}}), 0) {
		t.Fatal("Add wrong")
	}
	diff := NewDense(2, 2)
	Sub(diff, sum, b)
	if !diff.EqualApprox(a, 0) {
		t.Fatal("Sub wrong")
	}
	diff.Scale(2)
	if diff.At(1, 1) != 8 {
		t.Fatal("Scale wrong")
	}
}

func TestNorms(t *testing.T) {
	m := FromRows([][]float64{{3, -4}, {0, 0}})
	if m.FrobeniusNorm() != 5 {
		t.Errorf("frobenius = %v", m.FrobeniusNorm())
	}
	if m.MaxAbs() != 4 {
		t.Errorf("maxabs = %v", m.MaxAbs())
	}
}

func TestLUNoPivotReconstructs(t *testing.T) {
	src := rng.New(2)
	for _, n := range []int{1, 2, 5, 16, 64} {
		a := RandDiagDominant(n, src)
		orig := a.Clone()
		if err := LUNoPivot(a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res := LUResidual(orig, a); res > 1e-10 {
			t.Errorf("n=%d: residual %v", n, res)
		}
	}
}

func TestLUNoPivotSingular(t *testing.T) {
	a := NewDense(3, 3) // all zeros
	if err := LUNoPivot(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	b := FromRows([][]float64{{0, 1}, {1, 0}}) // zero pivot, needs pivoting
	if err := LUNoPivot(b); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUPartialPivot(t *testing.T) {
	// A matrix that requires pivoting.
	a := FromRows([][]float64{{0, 1, 2}, {3, 1, 1}, {1, 2, 0}})
	orig := a.Clone()
	perm, err := LUPartialPivot(a)
	if err != nil {
		t.Fatal(err)
	}
	// Verify P*A = L*U row by row.
	l, u := ExtractLU(a)
	prod := NewDense(3, 3)
	Mul(prod, l, u)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(prod.At(i, j)-orig.At(perm[i], j)) > 1e-12 {
				t.Fatalf("P*A != L*U at (%d,%d)", i, j)
			}
		}
	}
}

func TestSolveLU(t *testing.T) {
	src := rng.New(3)
	n := 32
	a := RandDiagDominant(n, src)
	orig := a.Clone()
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = src.Float64()*2 - 1
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		row := orig.RowView(i)
		for j := 0; j < n; j++ {
			b[i] += row[j] * xTrue[j]
		}
	}
	if err := LUNoPivot(a); err != nil {
		t.Fatal(err)
	}
	SolveLU(a, b)
	for i := range xTrue {
		if math.Abs(b[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("solution diverges at %d: %v vs %v", i, b[i], xTrue[i])
		}
	}
}

func TestSolveLUPivot(t *testing.T) {
	a := FromRows([][]float64{{0, 2}, {1, 0}})
	orig := a.Clone()
	perm, err := LUPartialPivot(a)
	if err != nil {
		t.Fatal(err)
	}
	x := SolveLUPivot(a, perm, []float64{4, 3}) // 2*x1=4, x0=3
	_ = orig
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

// Property: LU of a random diagonally dominant matrix always reconstructs.
func TestQuickLUReconstruction(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		src := rng.New(seed)
		a := RandDiagDominant(n, src)
		orig := a.Clone()
		if err := LUNoPivot(a); err != nil {
			return false
		}
		return LUResidual(orig, a) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Mul is associative with vectors of ones (sanity of blocking).
func TestQuickRowSumsViaMul(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		a := RandDense(17, 9, src)
		ones := NewDense(9, 1)
		for i := 0; i < 9; i++ {
			ones.Set(i, 0, 1)
		}
		got := NewDense(17, 1)
		Mul(got, a, ones)
		for i := 0; i < 17; i++ {
			var s float64
			for _, v := range a.RowView(i) {
				s += v
			}
			if math.Abs(got.At(i, 0)-s) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMul256(b *testing.B) {
	src := rng.New(1)
	x := RandDense(256, 256, src)
	y := RandDense(256, 256, src)
	dst := NewDense(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(dst, x, y)
	}
}

func BenchmarkLU256(b *testing.B) {
	src := rng.New(2)
	a := RandDiagDominant(256, src)
	work := NewDense(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(a)
		if err := LUNoPivot(work); err != nil {
			b.Fatal(err)
		}
	}
}
