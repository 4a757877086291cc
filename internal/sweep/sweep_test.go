package sweep

import (
	"math"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 42)
	if m.At(1, 2) != 42 || m.At(0, 0) != 0 {
		t.Fatal("set/get broken")
	}
	lo, hi := m.MinMax()
	if lo != 0 || hi != 42 {
		t.Errorf("minmax = %v, %v", lo, hi)
	}
}

func TestMatrixBoundsPanic(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(0, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Linspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := Linspace(3, 7, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1: %v", got)
	}
	if got := Linspace(60, 240, 19); got[18] != 240 {
		t.Errorf("endpoint drift: %v", got[18])
	}
}
