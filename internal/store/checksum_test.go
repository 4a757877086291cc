package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"testing"
)

// appendChecksumCks1 is the legacy cks1 framer, written out as older
// binaries did: the payload, "cks1:", 16 hex digits of its FNV-64a and a
// newline. Reads must keep verifying what it writes.
func appendChecksumCks1(value []byte) []byte {
	h := fnv.New64a()
	h.Write(value) //nolint:errcheck // hash.Hash never errors
	return fmt.Appendf(append([]byte(nil), value...), "cks1:%016x\n", h.Sum64())
}

// framers are the two framings reads verify: today's writer and the
// legacy one.
var framers = []struct {
	name   string
	frame  func([]byte) []byte
	magic  string
	digits int
}{
	{"cks2", appendChecksum, "cks2:", 8},
	{"cks1", appendChecksumCks1, "cks1:", 16},
}

func TestChecksumFraming(t *testing.T) {
	payload := []byte(`{"v":1,"result":{"waste":0.25}}` + "\n")

	// New writes carry the CRC-32C trailer, byte for byte.
	crc := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
	if got, want := appendChecksum(payload), fmt.Appendf(append([]byte(nil), payload...), "cks2:%08x\n", crc); !bytes.Equal(got, want) {
		t.Fatalf("appendChecksum = %q, want %q", got, want)
	}

	for _, fr := range framers {
		framed := fr.frame(payload)
		trailerLen := len(fr.magic) + fr.digits + 1
		if len(framed) != len(payload)+trailerLen || !bytes.HasPrefix(framed[len(payload):], []byte(fr.magic)) {
			t.Fatalf("%s: framed %q", fr.name, framed)
		}
		back, verified, err := splitChecksum(framed)
		if err != nil || !verified {
			t.Fatalf("%s: splitChecksum: verified=%v err=%v", fr.name, verified, err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatalf("%s: payload round-trip: got %q", fr.name, back)
		}

		// Every single-byte change of the trailer is corruption, never a
		// pass-through as legacy: a mangled magic (a cks2 magic turned
		// cks1 and back included), digit or newline.
		for pos := len(payload); pos < len(framed); pos++ {
			for flip := 1; flip < 256; flip++ {
				mut := append([]byte(nil), framed...)
				mut[pos] ^= byte(flip)
				if _, _, err := splitChecksum(mut); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: trailer byte %d flipped by %#x (%q): err %v, want ErrCorrupt",
						fr.name, pos-len(payload), flip, mut[len(payload):], err)
				}
			}
		}

		// Any single-bit flip in the payload is caught by the checksum.
		for bit := 0; bit < len(payload)*8; bit++ {
			mut := append([]byte(nil), framed...)
			mut[bit/8] ^= 1 << (bit % 8)
			if _, _, err := splitChecksum(mut); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: payload bit %d flipped: err %v, want ErrCorrupt", fr.name, bit, err)
			}
		}
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

// FuzzChecksumTrailer: both framings round-trip any payload, a
// single-byte change anywhere in a framed value is reported as
// ErrCorrupt, and splitChecksum never panics, whatever bytes it is
// handed.
func FuzzChecksumTrailer(f *testing.F) {
	entry := []byte(`{"v":1,"spec":{},"result":{},"elapsed_ms":1}` + "\n")
	f.Add(entry, uint(3), byte(0x04))
	f.Add([]byte{}, uint(0), byte(0xff))
	f.Add([]byte("cks1:0123456789abcdef\n"), uint(30), byte(0x20))
	f.Add(appendChecksumCks1(entry), uint(len(entry)+3), byte(0x03))
	f.Add([]byte("cks2:01234567\n"), uint(17), byte(0x03))
	f.Fuzz(func(t *testing.T, payload []byte, pos uint, flip byte) {
		splitChecksum(payload) //nolint:errcheck // must only not panic

		for _, fr := range framers {
			framed := fr.frame(payload)
			got, verified, err := splitChecksum(framed)
			if err != nil || !verified || !bytes.Equal(got, payload) {
				t.Fatalf("%s round trip: verified %v, err %v, payload %q, want %q", fr.name, verified, err, got, payload)
			}
			if flip == 0 {
				continue
			}
			at := pos % uint(len(framed))
			framed[at] ^= flip
			if _, _, err := splitChecksum(framed); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: byte %d flipped by %#x: err %v, want ErrCorrupt", fr.name, at, flip, err)
			}
		}
	})
}
