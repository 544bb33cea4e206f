package ckpt

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/blob"
)

// Store holds snapshots by content key, in the Encode format, on a
// blob.Store. Implementations must be safe for concurrent use. Like the
// sweep result cache, a store is an optimisation: Get misses on any problem
// and Put failures must not fail the run.
type Store interface {
	// Get returns the stored snapshot for key, if present and readable.
	Get(key string) (*Snapshot, bool)
	// Put stores the snapshot under snap.Key.
	Put(snap *Snapshot)
	// Blobs returns the byte store beneath, which holds each snapshot's
	// Encode bytes under its key.
	Blobs() blob.Store
}

// DecodeKey decodes b as the snapshot stored under key: anything Decode
// rejects, and a snapshot of another format version or key, is an error.
// The snapshot's line images alias b.
func DecodeKey(key string, b []byte) (*Snapshot, error) {
	snap, err := Decode(b)
	if err == nil && (snap.Version != FormatVersion || snap.Key != key) {
		return nil, fmt.Errorf("ckpt: format %d snapshot of %s stored under %s (this build speaks format %d)",
			snap.Version, snap.Key, key, FormatVersion)
	}
	return snap, err
}

func get(b blob.Store, key string) (*Snapshot, bool) {
	raw, ok := b.Get(key)
	if !ok {
		return nil, false
	}
	snap, err := DecodeKey(key, raw)
	return snap, err == nil
}

func put(b blob.Store, snap *Snapshot) {
	if raw, err := Encode(snap); err == nil {
		_ = b.Put(snap.Key, raw) // a lost write costs a recompute, never a wrong result
	}
}

// Over returns the Store that keeps snapshots in b, such as a fleet
// coordinator's checkpoint space layered under a local store.
func Over(b blob.Store) Store { return over{b} }

type over struct{ b blob.Store }

func (s over) Get(key string) (*Snapshot, bool) { return get(s.b, key) }
func (s over) Put(snap *Snapshot)               { put(s.b, snap) }
func (s over) Blobs() blob.Store                { return s.b }

// MemStore is an in-process Store.
type MemStore struct{ *blob.Mem }

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{blob.NewMem()} }

// Get implements Store.
func (s *MemStore) Get(key string) (*Snapshot, bool) { return get(s.Mem, key) }

// Put implements Store.
func (s *MemStore) Put(snap *Snapshot) { put(s.Mem, snap) }

// Blobs implements Store.
func (s *MemStore) Blobs() blob.Store { return s.Mem }

// diskSuffix names a snapshot file; legacySuffix named the all-JSON files
// of earlier builds, which open-time cleanup deletes.
const (
	diskSuffix   = ".ckpt"
	legacySuffix = ".ckpt.json"
)

// DiskStore persists snapshots as one <key>.ckpt file per key, so
// checkpoint builds amortise across processes (cmd/elsqsweep -ckptdir,
// cmd/elsqckpt). Snapshots are dominated by the L2 image (~1 MiB at Table 1
// geometry), so the store takes a total-size budget (blob.Disk.MaxBytes).
type DiskStore struct{ *blob.Disk }

// NewDiskStore opens (creating if needed) a disk store rooted at dir with
// the given size budget (<= 0 for unbounded). Files the size budget would
// never see or prune are swept on open: temp files orphaned by crashed
// writers, and legacy ".ckpt.json" snapshots, which this build reads as
// misses.
func NewDiskStore(dir string, maxBytes int64) (*DiskStore, error) {
	d, err := blob.OpenDisk(dir, diskSuffix, maxBytes)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	legacy, _ := filepath.Glob(filepath.Join(dir, "*"+legacySuffix))
	for _, p := range legacy {
		os.Remove(p)
	}
	return &DiskStore{d}, nil
}

// Get implements Store. Corrupt, truncated or stale-format entries are
// misses. The snapshot's line images alias the file buffer Get read, which
// nothing else holds.
func (s *DiskStore) Get(key string) (*Snapshot, bool) { return get(s.Disk, key) }

// Put implements Store.
func (s *DiskStore) Put(snap *Snapshot) { put(s.Disk, snap) }

// Blobs implements Store.
func (s *DiskStore) Blobs() blob.Store { return s.Disk }
