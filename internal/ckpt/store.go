package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Store holds snapshots by content key. Implementations must be safe for
// concurrent use. Like the sweep result cache, a store is an optimisation:
// Get misses on any problem and Put failures must not fail the run.
type Store interface {
	// Get returns the stored snapshot for key, if present and readable.
	Get(key string) (*Snapshot, bool)
	// Put stores the snapshot under snap.Key.
	Put(snap *Snapshot)
}

// MemStore is an in-process Store.
type MemStore struct {
	mu sync.RWMutex
	m  map[string]*Snapshot
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string]*Snapshot)} }

// Get implements Store.
func (s *MemStore) Get(key string) (*Snapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap, ok := s.m[key]
	return snap, ok
}

// Put implements Store.
func (s *MemStore) Put(snap *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[snap.Key] = snap
}

// Len returns the number of stored snapshots.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// diskSuffix names a snapshot file; legacySuffix named the all-JSON files
// of earlier builds, which open-time cleanup deletes.
const (
	diskSuffix   = ".ckpt"
	legacySuffix = ".ckpt.json"
)

// DiskStore persists snapshots as one file per key in the Encode format, so
// checkpoint builds amortise across processes (cmd/elsqsweep -ckptdir,
// cmd/elsqckpt).
// Snapshots are dominated by the L2 image (~1 MiB at Table 1 geometry), so
// the store enforces a total-size budget: after each write, oldest entries
// (by modification time) are pruned until the store fits MaxBytes.
type DiskStore struct {
	dir string
	// MaxBytes bounds the store's total size; <= 0 means unbounded.
	MaxBytes int64

	pruneMu sync.Mutex
}

// staleTempAge is how old an orphaned Put temp file must be before open-time
// cleanup removes it. Writes finish in well under a minute, so anything this
// old is the residue of a killed process, not an in-flight Put from a
// concurrent one.
const staleTempAge = time.Hour

// NewDiskStore opens (creating if needed) a disk store rooted at dir with
// the given size budget (<= 0 for unbounded). Files the size budget would
// never see or prune are swept on open: temp files orphaned by crashed
// writers, and legacy ".ckpt.json" snapshots, which this build reads as
// misses.
func NewDiskStore(dir string, maxBytes int64) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: store dir: %w", err)
	}
	s := &DiskStore{dir: dir, MaxBytes: maxBytes}
	s.sweepStale()
	return s, nil
}

// sweepStale removes legacy snapshot files, and Put temp files old enough
// that their writer must be dead. Errors are ignored: cleanup is
// best-effort by the Store contract.
func (s *DiskStore) sweepStale() {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-staleTempAge)
	for _, de := range des {
		name := de.Name()
		stale := strings.HasSuffix(name, legacySuffix)
		if !stale && strings.Contains(name, ".tmp-") && !strings.HasSuffix(name, diskSuffix) {
			info, err := de.Info()
			stale = err == nil && info.ModTime().Before(cutoff)
		}
		if stale {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// Has reports whether a snapshot file exists for key without reading it —
// a cheap existence probe (Get reads the full ~MiB image).
func (s *DiskStore) Has(key string) bool {
	info, err := os.Stat(s.path(key))
	return err == nil && info.Mode().IsRegular()
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

func (s *DiskStore) path(key string) string {
	return filepath.Join(s.dir, key+diskSuffix)
}

// Get implements Store. Corrupt, truncated or stale-format entries are
// treated as misses. The snapshot's line images alias the file buffer Get
// read, which nothing else holds.
func (s *DiskStore) Get(key string) (*Snapshot, bool) {
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	snap, err := Decode(b)
	if err != nil || snap.Version != FormatVersion || snap.Key != key {
		return nil, false
	}
	return snap, true
}

// Put implements Store. The write is atomic (temp file + rename) so a
// concurrent reader never observes a partial snapshot; afterwards the size
// budget is enforced.
func (s *DiskStore) Put(snap *Snapshot) {
	b, err := Encode(snap)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(s.dir, snap.Key+".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), s.path(snap.Key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	s.enforceBudget(snap.Key)
}

// Entry describes one stored snapshot file.
type Entry struct {
	// Key is the content address.
	Key string
	// Size is the file size in bytes.
	Size int64
	// ModTime is the file's modification time.
	ModTime time.Time
}

// Entries lists the store's snapshot files, oldest first.
func (s *DiskStore) Entries() ([]Entry, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var out []Entry
	for _, de := range des {
		name := de.Name()
		if !strings.HasSuffix(name, diskSuffix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, Entry{
			Key:     strings.TrimSuffix(name, diskSuffix),
			Size:    info.Size(),
			ModTime: info.ModTime(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].ModTime.Equal(out[j].ModTime) {
			return out[i].ModTime.Before(out[j].ModTime)
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// TotalBytes sums the store's snapshot file sizes.
func (s *DiskStore) TotalBytes() (int64, error) {
	entries, err := s.Entries()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		total += e.Size
	}
	return total, nil
}

// enforceBudget prunes oldest entries (never the one just written) until
// the store fits MaxBytes.
func (s *DiskStore) enforceBudget(justWritten string) {
	if s.MaxBytes <= 0 {
		return
	}
	s.pruneMu.Lock()
	defer s.pruneMu.Unlock()
	entries, err := s.Entries()
	if err != nil {
		return
	}
	var total int64
	for _, e := range entries {
		total += e.Size
	}
	for _, e := range entries {
		if total <= s.MaxBytes {
			return
		}
		if e.Key == justWritten {
			continue
		}
		if os.Remove(s.path(e.Key)) == nil {
			total -= e.Size
		}
	}
}
