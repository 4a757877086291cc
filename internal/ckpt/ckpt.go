// Package ckpt implements the checkpoint/restart substrate of the composite
// protocol: coordinated snapshots of named datasets and partial checkpoints
// (REMAINDER vs LIBRARY datasets, Section III), encoded with a CRC32
// integrity footer and kept in any store.ResultStore.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"abftckpt/internal/store"
)

// ErrCorrupt is returned when a checkpoint fails its integrity check.
var ErrCorrupt = errors.New("ckpt: checkpoint corrupted")

// Snapshot is a coordinated checkpoint of named float64 datasets — the unit
// the composite protocol saves and restores. Partial checkpoints are
// snapshots containing a subset of the application's datasets (e.g. only the
// REMAINDER dataset at library entry).
type Snapshot struct {
	// Version orders snapshots of the same application.
	Version uint64
	// Parts maps dataset name to its values.
	Parts map[string][]float64
}

// NewSnapshot copies the given datasets into a snapshot.
func NewSnapshot(version uint64, parts map[string][]float64) *Snapshot {
	s := &Snapshot{Version: version, Parts: make(map[string][]float64, len(parts))}
	for name, data := range parts {
		s.Parts[name] = append([]float64(nil), data...)
	}
	return s
}

const snapshotMagic = uint32(0xABF7C4B7)

// Encode serializes the snapshot with a CRC32 integrity footer.
func (s *Snapshot) Encode() []byte {
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	w(snapshotMagic)
	w(s.Version)
	names := make([]string, 0, len(s.Parts))
	for n := range s.Parts {
		names = append(names, n)
	}
	sort.Strings(names)
	w(uint32(len(names)))
	for _, n := range names {
		w(uint32(len(n)))
		buf.WriteString(n)
		data := s.Parts[n]
		w(uint64(len(data)))
		w(data)
	}
	crc := crc32.ChecksumIEEE(buf.Bytes())
	w(crc)
	return buf.Bytes()
}

// DecodeSnapshot parses an encoded snapshot, verifying its integrity.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	body, footer := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(footer) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	r := bytes.NewReader(body)
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var magic uint32
	if err := rd(&magic); err != nil || magic != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	s := &Snapshot{Parts: make(map[string][]float64)}
	if err := rd(&s.Version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	var count uint32
	if err := rd(&count); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	for i := uint32(0); i < count; i++ {
		var nameLen uint32
		if err := rd(&nameLen); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		name := make([]byte, nameLen)
		if _, err := r.Read(name); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		var dataLen uint64
		if err := rd(&dataLen); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if dataLen > uint64(r.Len()/8)+1 {
			return nil, fmt.Errorf("%w: implausible length", ErrCorrupt)
		}
		data := make([]float64, dataLen)
		if err := rd(data); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		s.Parts[string(name)] = data
	}
	return s, nil
}

// Save encodes a snapshot and stores it under name.
func Save(rs store.ResultStore, name string, s *Snapshot) error {
	return rs.Put(name, s.Encode())
}

// Load retrieves and decodes the snapshot stored under name. A missing
// snapshot is reported as store.ErrNotFound.
func Load(rs store.ResultStore, name string) (*Snapshot, error) {
	b, err := rs.Get(name)
	if err != nil {
		return nil, fmt.Errorf("ckpt: loading %q: %w", name, err)
	}
	return DecodeSnapshot(b)
}
