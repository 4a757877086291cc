package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
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

// Checksum trailer framing. A framed value is
//
//	<payload> "cks1:" <16 hex chars of FNV-64a(payload)> "\n"
//
// appended after the payload verbatim. Cell entries end in "}\n" (the
// scenario entry codec writes them that way, as json.Encoder did before
// it), so the trailer reads as a trailing non-JSON line:
// a pre-checksum binary that loads a framed entry fails its JSON decode
// and degrades to a cache miss, never to a wrong result, while legacy
// values without a trailer pass through Checksummed unverified — old
// caches stay warm across the upgrade.
const (
	checksumMagic = "cks1:"
	// checksumTrailerLen is len(checksumMagic) + 16 hex digits + "\n".
	checksumTrailerLen = len(checksumMagic) + 16 + 1
)

// appendChecksum frames value with its checksum trailer.
func appendChecksum(value []byte) []byte {
	h := fnv.New64a()
	h.Write(value) //nolint:errcheck // hash.Hash never errors
	out := make([]byte, 0, len(value)+checksumTrailerLen)
	out = append(out, value...)
	out = append(out, checksumMagic...)
	out = fmt.Appendf(out, "%016x\n", h.Sum64())
	return out
}

// splitChecksum verifies and strips the trailer. Values without a trailer
// are legacy writes: returned unchanged with verified=false. A trailer
// that does not match its payload returns ErrCorrupt — and so does a
// "near-framed" trailer (magic one byte off, digits or newline mangled,
// digits otherwise hex-shaped), so a bit flip inside the trailer itself
// cannot demote a framed value to legacy and slip past verification.
// Legacy cell entries are JSON ending in "}\n", which can never look
// near-framed ('}' is not a hex digit), so the upgrade path is unharmed.
func splitChecksum(framed []byte) (payload []byte, verified bool, err error) {
	if len(framed) < checksumTrailerLen {
		return framed, false, nil
	}
	trailer := framed[len(framed)-checksumTrailerLen:]
	magicDiff := 0
	for i := 0; i < len(checksumMagic); i++ {
		if trailer[i] != checksumMagic[i] {
			magicDiff++
		}
	}
	digits := trailer[len(checksumMagic) : checksumTrailerLen-1]
	hexShaped := true
	for _, c := range digits {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			hexShaped = false
			break
		}
	}
	newlineOK := trailer[checksumTrailerLen-1] == '\n'
	switch {
	case magicDiff == 0:
		// A framed value (possibly with corrupted digits or newline).
	case magicDiff == 1 && hexShaped && newlineOK:
		// One corrupted magic byte on an otherwise well-formed trailer.
		return nil, false, ErrCorrupt
	default:
		return framed, false, nil
	}
	if !newlineOK || !hexShaped {
		return nil, false, ErrCorrupt
	}
	payload = framed[:len(framed)-checksumTrailerLen]
	want, perr := strconv.ParseUint(string(digits), 16, 64)
	if perr != nil {
		return nil, false, ErrCorrupt
	}
	h := fnv.New64a()
	h.Write(payload) //nolint:errcheck
	if h.Sum64() != want {
		return nil, false, ErrCorrupt
	}
	return payload, true, nil
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
