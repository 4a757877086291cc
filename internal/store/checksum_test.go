package store

import (
	"bytes"
	"errors"
	"testing"
)

func TestChecksumFraming(t *testing.T) {
	payload := []byte(`{"v":1,"result":{"waste":0.25}}` + "\n")
	framed := appendChecksum(payload)
	if len(framed) != len(payload)+checksumTrailerLen {
		t.Fatalf("framed length %d, want %d", len(framed), len(payload)+checksumTrailerLen)
	}
	back, verified, err := splitChecksum(framed)
	if err != nil || !verified {
		t.Fatalf("splitChecksum: verified=%v err=%v", verified, err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatalf("payload round-trip: got %q", back)
	}

	// Values without a trailer are legacy: passed through unverified.
	for _, legacy := range [][]byte{nil, {}, []byte("short"), payload} {
		back, verified, err := splitChecksum(legacy)
		if err != nil || verified {
			t.Fatalf("legacy %q: verified=%v err=%v", legacy, verified, err)
		}
		if !bytes.Equal(back, legacy) {
			t.Fatalf("legacy %q mutated to %q", legacy, back)
		}
	}

	// Any single-bit flip anywhere in the framed value must be caught —
	// in the payload, the magic (reads as legacy, fails downstream
	// decode), or the digits.
	for bit := 0; bit < len(framed)*8; bit += 7 {
		mut := append([]byte(nil), framed...)
		mut[bit/8] ^= 1 << (bit % 8)
		back, verified, err := splitChecksum(mut)
		if err == nil && verified && !bytes.Equal(back, payload) {
			t.Fatalf("bit %d: flip verified as valid with altered payload", bit)
		}
	}
}

func TestChecksummedDetectsCorruption(t *testing.T) {
	inner := NewMemory()
	cs := WithChecksum(inner)

	k1, k2 := key(1), key(2)
	if err := cs.Put(k1, []byte("payload-one")); err != nil {
		t.Fatal(err)
	}
	if err := cs.PutBatch([]Item{{Key: k2, Value: []byte("payload-two")}}); err != nil {
		t.Fatal(err)
	}

	got, err := cs.Get(k1)
	if err != nil || string(got) != "payload-one" {
		t.Fatalf("get: %q, %v", got, err)
	}

	// Corrupt k1 in the backing store: Get must fail with ErrCorrupt, and
	// GetBatch must omit it, name it in a *CorruptError and still return
	// healthy k2. A missing key is not corrupt.
	framed, err := inner.Get(k1)
	if err != nil {
		t.Fatal(err)
	}
	framed[3] ^= 0x40
	if err := inner.Put(k1, framed); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Get(k1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("get of corrupted value: err %v, want ErrCorrupt", err)
	}
	batch, err := cs.GetBatch([]string{k1, k2, key(3)})
	var ce *CorruptError
	if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) {
		t.Fatalf("getbatch: err %v, want a *CorruptError matching ErrCorrupt", err)
	}
	if len(ce.Keys) != 1 || ce.Keys[0] != k1 {
		t.Fatalf("getbatch corrupt keys %v, want [k1]", ce.Keys)
	}
	if len(batch) != 1 || string(batch[k2]) != "payload-two" {
		t.Fatalf("getbatch values %q, want only healthy k2", batch)
	}
	if batch, err := cs.GetBatch([]string{k2}); err != nil || string(batch[k2]) != "payload-two" {
		t.Fatalf("getbatch of intact values: %q, %v", batch, err)
	}
}

// TestChecksummedLegacyPassThrough pins the upgrade path: values written
// by a pre-checksum binary (no trailer) read back unchanged, so existing
// caches stay warm after the wrapper is introduced.
func TestChecksummedLegacyPassThrough(t *testing.T) {
	inner := NewMemory()
	legacy := []byte(`{"v":1,"spec":{},"result":{}}` + "\n")
	if err := inner.Put(key(9), legacy); err != nil {
		t.Fatal(err)
	}
	cs := WithChecksum(inner)
	got, err := cs.Get(key(9))
	if err != nil || !bytes.Equal(got, legacy) {
		t.Fatalf("legacy read: %q, %v", got, err)
	}
	batch, err := cs.GetBatch([]string{key(9)})
	if err != nil || !bytes.Equal(batch[key(9)], legacy) {
		t.Fatalf("legacy batch read: %q, %v", batch, err)
	}
}

// TestChecksummedTrailerDigitsMangled covers a trailer whose magic
// survives but whose digits are not hex: classified as corruption, not
// silently parsed.
func TestChecksummedTrailerDigitsMangled(t *testing.T) {
	inner := NewMemory()
	framed := appendChecksum([]byte("data"))
	copy(framed[len(framed)-5:], "zzzz\n")
	if err := inner.Put(key(4), framed); err != nil {
		t.Fatal(err)
	}
	cs := WithChecksum(inner)
	if _, err := cs.Get(key(4)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mangled trailer digits: err %v, want ErrCorrupt", err)
	}
}

// FuzzChecksumTrailer: framing round-trips any payload, a single-byte
// change anywhere in a framed value is reported as ErrCorrupt, and
// splitChecksum never panics, whatever bytes it is handed.
func FuzzChecksumTrailer(f *testing.F) {
	f.Add([]byte(`{"v":1,"spec":{},"result":{},"elapsed_ms":1}`+"\n"), uint(3), byte(0x04))
	f.Add([]byte{}, uint(0), byte(0xff))
	f.Add([]byte("cks1:0123456789abcdef\n"), uint(30), byte(0x20))
	f.Fuzz(func(t *testing.T, payload []byte, pos uint, flip byte) {
		splitChecksum(payload) //nolint:errcheck // must only not panic

		framed := appendChecksum(payload)
		got, verified, err := splitChecksum(framed)
		if err != nil || !verified || !bytes.Equal(got, payload) {
			t.Fatalf("round trip: verified %v, err %v, payload %q, want %q", verified, err, got, payload)
		}
		if flip == 0 {
			return
		}
		framed[pos%uint(len(framed))] ^= flip
		if _, _, err := splitChecksum(framed); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped by %#x: err %v, want ErrCorrupt", pos%uint(len(framed)), flip, err)
		}
	})
}
