package abft

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"abftckpt/internal/matrix"
	"abftckpt/internal/rng"
)

const tol = 1e-9

func TestEncodeVerify(t *testing.T) {
	src := rng.New(1)
	a := matrix.RandDense(12, 16, src)
	e := EncodeColumns(a, 4, 2) // 4 blocks, 2 groups
	if e.Blocks() != 4 || e.Groups() != 2 {
		t.Fatalf("blocks=%d groups=%d", e.Blocks(), e.Groups())
	}
	if e.Data.Cols != 16+2*4 {
		t.Fatalf("encoded cols = %d", e.Data.Cols)
	}
	if err := e.Verify(tol); err != nil {
		t.Fatalf("fresh encoding fails verify: %v", err)
	}
	// Original data is preserved.
	if !e.DataView().EqualApprox(a, 0) {
		t.Fatal("encoding altered the data")
	}
}

func TestEncodePanics(t *testing.T) {
	a := matrix.NewDense(4, 10)
	for i, f := range []func(){
		func() { EncodeColumns(a, 3, 2) }, // 10 % 3 != 0
		func() { EncodeColumns(a, 0, 2) },
		func() { EncodeColumns(a, 2, 0) },
	} {
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

func TestVerifyDetectsCorruption(t *testing.T) {
	src := rng.New(2)
	e := EncodeColumns(matrix.RandDense(8, 8, src), 2, 2)
	e.Data.Set(3, 1, e.Data.At(3, 1)+1e-3) // silent bit-flip style corruption
	if err := e.Verify(tol); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestEraseRecoverBlockColumn(t *testing.T) {
	src := rng.New(3)
	a := matrix.RandDense(10, 20, src)
	e := EncodeColumns(a, 5, 2)
	e.EraseBlockColumn(2)
	if err := e.Verify(tol); err == nil {
		t.Fatal("verify should fail on erased data")
	}
	if err := e.RecoverBlockColumn(2); err != nil {
		t.Fatal(err)
	}
	if !e.DataView().EqualApprox(a, tol) {
		t.Fatal("recovered data differs from original")
	}
	if err := e.Verify(tol); err != nil {
		t.Fatalf("verify after recovery: %v", err)
	}
}

func TestRecoverFailsOnDoubleLossInGroup(t *testing.T) {
	src := rng.New(4)
	e := EncodeColumns(matrix.RandDense(6, 16, src), 4, 2)
	// Blocks 0 and 1 share group 0.
	e.EraseBlockColumn(0)
	e.EraseBlockColumn(1)
	if err := e.RecoverBlockColumn(0); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("expected ErrUnrecoverable, got %v", err)
	}
	if err := e.Recover([]int{0, 1}, nil); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Recover should refuse double loss: %v", err)
	}
}

// A process failure in a 1 x Q block-cyclic layout loses one block-column
// per group (plus possibly checksum blocks); Recover must repair all of it.
func TestRecoverProcessFailureOneByQ(t *testing.T) {
	src := rng.New(5)
	const q, nb, blocks = 4, 3, 8 // 2 groups of 4
	a := matrix.RandDense(9, nb*blocks, src)
	e := EncodeColumns(a, nb, q)

	// Process failed owns block columns failed, failed+q, ... of the 1 x q
	// block-cyclic layout.
	failed := 2
	var lost []int
	for j := failed; j < blocks; j += q {
		lost = append(lost, j)
		e.EraseBlockColumn(j)
	}
	if len(lost) != 2 {
		t.Fatalf("expected 2 lost blocks, got %v", lost)
	}
	if err := e.Recover(lost, nil); err != nil {
		t.Fatal(err)
	}
	if !e.DataView().EqualApprox(a, tol) {
		t.Fatal("process-failure recovery incorrect")
	}
}

func TestRecoverChecksumLoss(t *testing.T) {
	src := rng.New(6)
	a := matrix.RandDense(7, 12, src)
	e := EncodeColumns(a, 3, 2)
	e.EraseBlockColumn(3) // group 1
	e.EraseChecksum(0)    // different group's checksum
	if err := e.Recover([]int{3}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(tol); err != nil {
		t.Fatal(err)
	}
	// Losing a block and its own group checksum is unrecoverable.
	e2 := EncodeColumns(a, 3, 2)
	e2.EraseBlockColumn(0)
	e2.EraseChecksum(0)
	if err := e2.Recover([]int{0}, []int{0}); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("expected ErrUnrecoverable, got %v", err)
	}
}

// GEMM maintains the encoding: C = A*B_enc verifies without re-encoding,
// and a block lost from C is recoverable.
func TestGemmMaintainsChecksums(t *testing.T) {
	src := rng.New(7)
	a := matrix.RandDense(11, 9, src)
	b := matrix.RandDense(9, 12, src)
	be := EncodeColumns(b, 3, 2)
	ce := Gemm(a, be)
	if err := ce.Verify(1e-8); err != nil {
		t.Fatalf("product checksums invalid: %v", err)
	}
	want := matrix.NewDense(11, 12)
	matrix.Mul(want, a, b)
	if !ce.DataView().EqualApprox(want, 1e-10) {
		t.Fatal("Gemm data wrong")
	}
	ref := ce.DataView().Clone()
	ce.EraseBlockColumn(1)
	if err := ce.RecoverBlockColumn(1); err != nil {
		t.Fatal(err)
	}
	if !ce.DataView().EqualApprox(ref, 1e-8) {
		t.Fatal("post-GEMM recovery incorrect")
	}
}

// Property: random single-block erasure after GEMM is always recoverable and
// exact within tolerance.
func TestQuickGemmRecovery(t *testing.T) {
	f := func(seed uint64, blockRaw uint8) bool {
		src := rng.New(seed)
		a := matrix.RandDense(8, 6, src)
		b := matrix.RandDense(6, 8, src)
		be := EncodeColumns(b, 2, 2) // 4 blocks, 2 groups
		ce := Gemm(a, be)
		ref := ce.DataView().Clone()
		block := int(blockRaw) % 4
		ce.EraseBlockColumn(block)
		if err := ce.RecoverBlockColumn(block); err != nil {
			return false
		}
		return ce.DataView().EqualApprox(ref, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLUFactorsCorrectly(t *testing.T) {
	src := rng.New(8)
	for _, n := range []int{1, 2, 8, 33} {
		a := matrix.RandDiagDominant(n, src)
		f := NewLU(a)
		if err := f.Factor(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res := matrix.LUResidual(a, f.LU()); res > 1e-10 {
			t.Errorf("n=%d: residual %v", n, res)
		}
		if err := f.Verify(1e-7); err != nil {
			t.Errorf("n=%d: final checksums: %v", n, err)
		}
	}
}

// The checksum invariant holds after every elimination step.
func TestLUInvariantEveryStep(t *testing.T) {
	src := rng.New(9)
	a := matrix.RandDiagDominant(24, src)
	f := NewLU(a)
	for !f.Done() {
		if err := f.Verify(1e-7); err != nil {
			t.Fatalf("invariant broken at step %d: %v", f.StepsDone(), err)
		}
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// Mid-factorization row loss: erase a trailing row at every possible step,
// recover it, finish, and compare against the failure-free factorization.
func TestLURecoverTrailingRowMidFactorization(t *testing.T) {
	src := rng.New(10)
	n := 16
	a := matrix.RandDiagDominant(n, src)
	ref := NewLU(a)
	if err := ref.Factor(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < n; step++ {
		for _, rOff := range []int{0, 1} {
			r := step + rOff
			if r >= n {
				continue
			}
			f := NewLU(a)
			for i := 0; i < step; i++ {
				if err := f.Step(); err != nil {
					t.Fatal(err)
				}
			}
			f.EraseRow(r)
			if err := f.RecoverRow(r); err != nil {
				t.Fatalf("step %d row %d: %v", step, r, err)
			}
			if err := f.Factor(); err != nil {
				t.Fatalf("step %d row %d: %v", step, r, err)
			}
			if !f.LU().EqualApprox(ref.LU(), 1e-6) {
				t.Fatalf("step %d row %d: factors diverge after recovery", step, r)
			}
		}
	}
}

func TestLURecoverRejectsCompletedURow(t *testing.T) {
	src := rng.New(11)
	f := NewLU(matrix.RandDiagDominant(8, src))
	for i := 0; i < 4; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	f.EraseRow(1) // completed U row
	if err := f.RecoverRow(1); !errors.Is(err, ErrRowLeftProtectedSet) {
		t.Fatalf("expected ErrRowLeftProtectedSet, got %v", err)
	}
}

func TestLURecoverChecksumRow(t *testing.T) {
	src := rng.New(12)
	a := matrix.RandDiagDominant(10, src)
	f := NewLU(a)
	for i := 0; i < 5; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	f.EraseChecksumRow()
	f.RecoverChecksumRow()
	if err := f.Verify(1e-7); err != nil {
		t.Fatalf("checksum row rebuild failed: %v", err)
	}
	if err := f.Factor(); err != nil {
		t.Fatal(err)
	}
	if res := matrix.LUResidual(a, f.LU()); res > 1e-9 {
		t.Errorf("residual after checksum-row loss: %v", res)
	}
}

func TestLURecoverUnrecoverableDoubleRowLoss(t *testing.T) {
	src := rng.New(13)
	f := NewLU(matrix.RandDiagDominant(8, src))
	f.EraseRow(3)
	f.EraseRow(5)
	if err := f.RecoverRow(3); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("expected ErrUnrecoverable, got %v", err)
	}
}

func TestLUVerifyDetectsErasure(t *testing.T) {
	src := rng.New(14)
	f := NewLU(matrix.RandDiagDominant(8, src))
	f.EraseRow(2)
	if err := f.Verify(1e-7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

// Property: erase-and-recover at a random step is exact for random sizes.
func TestQuickLURecovery(t *testing.T) {
	f := func(seed uint64, stepRaw, rowRaw uint8) bool {
		src := rng.New(seed)
		n := 12
		a := matrix.RandDiagDominant(n, src)
		ref := NewLU(a)
		if ref.Factor() != nil {
			return false
		}
		step := int(stepRaw) % n
		fac := NewLU(a)
		for i := 0; i < step; i++ {
			if fac.Step() != nil {
				return false
			}
		}
		r := step + int(rowRaw)%(n-step) // always in the protected set
		fac.EraseRow(r)
		if fac.RecoverRow(r) != nil {
			return false
		}
		if fac.Factor() != nil {
			return false
		}
		return fac.LU().EqualApprox(ref.LU(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Solving with recovered factors gives the right answer end to end.
func TestLUSolveAfterRecovery(t *testing.T) {
	src := rng.New(15)
	n := 20
	a := matrix.RandDiagDominant(n, src)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = src.Float64()
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		row := a.RowView(i)
		for j := 0; j < n; j++ {
			b[i] += row[j] * xTrue[j]
		}
	}
	f := NewLU(a)
	for i := 0; i < 7; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	f.EraseRow(12)
	if err := f.RecoverRow(12); err != nil {
		t.Fatal(err)
	}
	if err := f.Factor(); err != nil {
		t.Fatal(err)
	}
	lu := f.LU().Clone()
	matrix.SolveLU(lu, b)
	for i := range xTrue {
		if math.Abs(b[i]-xTrue[i]) > 1e-7 {
			t.Fatalf("solution wrong at %d: %v vs %v", i, b[i], xTrue[i])
		}
	}
}

func BenchmarkGemmEncoded128(b *testing.B) {
	src := rng.New(1)
	a := matrix.RandDense(128, 128, src)
	be := EncodeColumns(matrix.RandDense(128, 128, src), 16, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(a, be)
	}
}

func BenchmarkLUFactor128(b *testing.B) {
	src := rng.New(2)
	a := matrix.RandDiagDominant(128, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewLU(a)
		if err := f.Factor(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLURecoverRow128(b *testing.B) {
	src := rng.New(3)
	a := matrix.RandDiagDominant(128, src)
	f := NewLU(a)
	for i := 0; i < 64; i++ {
		if err := f.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.EraseRow(100)
		if err := f.RecoverRow(100); err != nil {
			b.Fatal(err)
		}
	}
}
