package ckpt

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"testing/quick"

	"abftckpt/internal/rng"
	"abftckpt/internal/store"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewSnapshot(7, map[string][]float64{
		"remainder": {1.5, -2.25, 3},
		"library":   {0.125},
		"empty":     {},
	})
	back, err := DecodeSnapshot(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 7 || len(back.Parts) != 3 {
		t.Fatalf("round trip: %+v", back)
	}
	for name, want := range s.Parts {
		got := back.Parts[name]
		if len(got) != len(want) {
			t.Fatalf("%s: %v vs %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d]: %v vs %v", name, i, got[i], want[i])
			}
		}
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	data := []float64{1, 2}
	s := NewSnapshot(1, map[string][]float64{"d": data})
	data[0] = 99
	if s.Parts["d"][0] != 1 {
		t.Fatal("snapshot aliases source data")
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	s := NewSnapshot(1, map[string][]float64{"d": {1, 2, 3}})
	b := s.Encode()
	b[10] ^= 0xFF
	if _, err := DecodeSnapshot(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not detected: %v", err)
	}
	if _, err := DecodeSnapshot([]byte{1, 2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation not detected: %v", err)
	}
}

// A body that passes the CRC but is structurally short — a writer that
// checksummed a truncated buffer — must still decode to ErrCorrupt at every
// cut point, never to a partial snapshot.
func TestDecodeRejectsTruncatedBody(t *testing.T) {
	b := NewSnapshot(5, map[string][]float64{"remainder": {1, 2, 3}, "library": {4}}).Encode()
	body := b[:len(b)-4]
	for cut := 0; cut < len(body); cut++ {
		framed := binary.LittleEndian.AppendUint32(append([]byte(nil), body[:cut]...), crc32.ChecksumIEEE(body[:cut]))
		if s, err := DecodeSnapshot(framed); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d/%d: decoded %+v, err %v; want ErrCorrupt", cut, len(body), s, err)
		}
	}
}

// Snapshots round-trip through every store backend; a missing name is
// store.ErrNotFound, and a damaged stored blob fails the CRC on load.
func TestSaveLoadViaStore(t *testing.T) {
	for _, tc := range []struct {
		name string
		rs   store.ResultStore
	}{
		{"memory", store.NewMemory()},
		{"disk", store.NewDisk(t.TempDir())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSnapshot(3, map[string][]float64{"x": {9, 8}})
			if err := Save(tc.rs, "epoch-entry", s); err != nil {
				t.Fatal(err)
			}
			back, err := Load(tc.rs, "epoch-entry")
			if err != nil || back.Version != 3 || back.Parts["x"][1] != 8 {
				t.Fatalf("load: %+v, %v", back, err)
			}
			if _, err := Load(tc.rs, "nope"); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("missing snapshot: err = %v, want store.ErrNotFound", err)
			}
			b := s.Encode()
			b[len(b)/2] ^= 0xFF
			if err := tc.rs.Put("damaged", b); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(tc.rs, "damaged"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("damaged snapshot: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// Property: encode/decode round-trips random snapshots exactly.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		src := rng.New(seed)
		n := int(nRaw%64) + 1
		data := make([]float64, n)
		for i := range data {
			data[i] = src.NormFloat64() * 1e6
		}
		s := NewSnapshot(seed, map[string][]float64{"d": data})
		back, err := DecodeSnapshot(s.Encode())
		if err != nil {
			return false
		}
		got := back.Parts["d"]
		if len(got) != n {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSnapshotEncode(b *testing.B) {
	data := make([]float64, 1<<16)
	s := NewSnapshot(1, map[string][]float64{"d": data})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Encode()
	}
}
