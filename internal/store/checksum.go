package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
)

// ErrCorrupt reports a stored value whose checksum trailer does not match
// its payload: the bytes came back, but they are not the bytes that were
// written. Callers treat it exactly like a miss — the cell cache counts
// the corruption and re-executes — closing the silent-error loop at the
// storage layer the way verified patterns close it in the simulated
// applications (arXiv:1511.04478).
var ErrCorrupt = errors.New("store: checksum mismatch (corrupt value)")

// CorruptError names the keys of a batch read whose values came back
// corrupt (in no particular order). Checksummed.GetBatch returns it
// together with the intact values; errors.Is(err, ErrCorrupt) holds for
// it.
type CorruptError struct {
	Keys []string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("%v: %d key(s)", ErrCorrupt, len(e.Keys))
}

// Unwrap makes errors.Is(err, ErrCorrupt) hold.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Checksum trailer framing. A framed value is its payload, verbatim,
// followed by one trailer line. New writes use
//
//	<payload> "cks2:" <8 hex chars of CRC-32C(payload)> "\n"
//
// and reads also verify the framing written before it,
//
//	<payload> "cks1:" <16 hex chars of FNV-64a(payload)> "\n"
//
// so stores and caches filled by an older binary stay warm. CRC-32C is
// hardware-assisted on amd64 and arm64 and catches every burst error of
// up to 32 bits. Cell entries end in "}\n" (the scenario entry codec
// writes them that way, as json.Encoder did before it), so the trailer
// reads as a trailing non-JSON line: a binary that does not know a
// framing fails its JSON decode and degrades to a cache miss, never to a
// wrong result, while legacy values without a trailer pass through
// Checksummed unverified.
type framing struct {
	magic  string
	digits int // hex digits of the checksum
	sum    func(payload []byte) uint64
}

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	// crcFraming is what appendChecksum writes.
	crcFraming = framing{magic: "cks2:", digits: 8, sum: func(p []byte) uint64 {
		return uint64(crc32.Checksum(p, castagnoli))
	}}
	// fnvFraming is the legacy framing, verified on read only.
	fnvFraming = framing{magic: "cks1:", digits: 16, sum: func(p []byte) uint64 {
		h := fnv.New64a()
		h.Write(p) //nolint:errcheck // hash.Hash never errors
		return h.Sum64()
	}}
)

// trailerLen is len(magic) + the hex digits + "\n".
func (f *framing) trailerLen() int { return len(f.magic) + f.digits + 1 }

// appendTo frames value with f's trailer.
func (f *framing) appendTo(value []byte) []byte {
	const hexDigits = "0123456789abcdef"
	out := make([]byte, len(value)+f.trailerLen())
	n := copy(out, value)
	n += copy(out[n:], f.magic)
	sum := f.sum(value)
	for i := f.digits - 1; i >= 0; i-- {
		out[n+i] = hexDigits[sum&0xf]
		sum >>= 4
	}
	out[len(out)-1] = '\n'
	return out
}

// split verifies and strips f's trailer. framed reports whether the value
// carries the trailer at all, exactly or "near-framed" (magic one byte
// off, digits or newline mangled, digits otherwise hex-shaped); a framed
// value whose trailer does not match its payload returns ErrCorrupt.
func (f *framing) split(value []byte) (payload []byte, framed bool, err error) {
	n := f.trailerLen()
	if len(value) < n {
		return nil, false, nil
	}
	trailer := value[len(value)-n:]
	magicDiff := 0
	for i := 0; i < len(f.magic); i++ {
		if trailer[i] != f.magic[i] {
			magicDiff++
		}
	}
	var want uint64
	hexShaped := true
	for _, c := range trailer[len(f.magic) : n-1] {
		switch {
		case '0' <= c && c <= '9':
			want = want<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			want = want<<4 | uint64(c-'a'+10)
		default:
			hexShaped = false
		}
	}
	newlineOK := trailer[n-1] == '\n'
	switch {
	case magicDiff == 0:
		// A framed value (possibly with corrupted digits or newline).
	case magicDiff == 1 && hexShaped && newlineOK:
		// One corrupted magic byte on an otherwise well-formed trailer.
		return nil, true, ErrCorrupt
	default:
		return nil, false, nil
	}
	payload = value[:len(value)-n]
	if !newlineOK || !hexShaped || f.sum(payload) != want {
		return nil, true, ErrCorrupt
	}
	return payload, true, nil
}

// appendChecksum frames value with its CRC-32C trailer.
func appendChecksum(value []byte) []byte { return crcFraming.appendTo(value) }

// splitChecksum verifies and strips the trailer of either framing. Values
// without a trailer are legacy writes: returned unchanged with
// verified=false. A trailer that does not match its payload returns
// ErrCorrupt — and so does a near-framed trailer, so a byte flip inside
// the trailer itself (a cks2 magic turned cks1 included) cannot demote a
// framed value to legacy and slip past verification. The two framings
// cannot be mistaken for each other under one flipped byte: the last 14
// bytes of a cks1 value are hex digits and a newline, three bytes from
// any cks2 magic, and the cks1 digit field of a cks2 value holds the
// non-hex "ks:" of its magic. Legacy cell entries are JSON ending in
// "}\n", which can never look near-framed ('}' is not a hex digit), so
// the upgrade path is unharmed.
func splitChecksum(value []byte) (payload []byte, verified bool, err error) {
	for _, f := range [...]*framing{&crcFraming, &fnvFraming} {
		if payload, framed, err := f.split(value); framed {
			return payload, err == nil, err
		}
	}
	return value, false, nil
}

// Checksummed wraps a ResultStore with write-side checksum framing and
// read-side verification: Put appends a checksum trailer, Get verifies
// and strips it, and a mismatch surfaces as ErrCorrupt (GetBatch omits
// the corrupt key and names it in a *CorruptError). Legacy values without
// a trailer pass through unverified, so existing caches stay warm. The
// wrapper keeps no counters: readers count what its errors report (the
// cell cache's CacheStats.CorruptEntries).
//
// The wrapper composes with any backend — Disk, Remote, Memory — because
// it only rewrites values; keys, batching and layout are untouched.
type Checksummed struct {
	inner ResultStore
}

// WithChecksum wraps inner in checksum framing and verification.
func WithChecksum(inner ResultStore) *Checksummed {
	return &Checksummed{inner: inner}
}

// Inner returns the wrapped store. The server's store API is mounted
// over it so framed bytes travel the wire verbatim and each remote
// client verifies its own reads end-to-end; double-framing (client
// wrapper over a server wrapper) would make every entry unreadable.
func (s *Checksummed) Inner() ResultStore { return s.inner }

// Get implements ResultStore. A corrupt value returns ErrCorrupt.
func (s *Checksummed) Get(key string) ([]byte, error) {
	framed, err := s.inner.Get(key)
	if err != nil {
		return nil, err
	}
	payload, _, err := splitChecksum(framed)
	return payload, err
}

// Put implements ResultStore: the value is framed with its checksum.
func (s *Checksummed) Put(key string, value []byte) error {
	return s.inner.Put(key, appendChecksum(value))
}

// GetBatch implements ResultStore. Corrupt values are omitted from the
// map and named in a *CorruptError returned alongside the intact values,
// so a batch reader above any pass-through wrapper can count each
// detected silent error the way a per-key Get reports it. Values are
// verified in place in the inner store's map.
func (s *Checksummed) GetBatch(keys []string) (map[string][]byte, error) {
	got, err := s.inner.GetBatch(keys)
	if err != nil {
		return nil, err
	}
	var corrupt []string
	for k, framed := range got {
		payload, _, err := splitChecksum(framed)
		if err != nil {
			corrupt = append(corrupt, k)
			delete(got, k)
			continue
		}
		got[k] = payload
	}
	if len(corrupt) > 0 {
		return got, &CorruptError{Keys: corrupt}
	}
	return got, nil
}

// PutBatch implements ResultStore: every item is framed.
func (s *Checksummed) PutBatch(items []Item) error {
	framed := make([]Item, len(items))
	for i, it := range items {
		framed[i] = Item{Key: it.Key, Value: appendChecksum(it.Value)}
	}
	return s.inner.PutBatch(framed)
}

// Flush implements ResultStore.
func (s *Checksummed) Flush() error { return s.inner.Flush() }

// Close implements ResultStore.
func (s *Checksummed) Close() error { return s.inner.Close() }
