package sweep

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/blob"
	"repro/internal/cpu"
)

// Cache stores completed simulation results by job key, so re-runs and
// overlapping sweeps skip simulations that already happened. Implementations
// must be safe for concurrent use.
type Cache interface {
	// Get returns the cached result for key, if present.
	Get(key string) (*cpu.Result, bool)
	// Put stores the result for key. Errors are the cache's concern
	// (caching is an optimisation); implementations must not fail the run.
	Put(key string, r *cpu.Result)
}

// ValidResult reports whether r can be a real simulation result. Every
// edge that decodes a stored or uploaded result rejects one that parses but
// fails this (a stale schema, a foreign file in a cache dir): a miss
// re-simulates, a bad hit poisons artifacts.
func ValidResult(r *cpu.Result) bool {
	return r != nil && r.Counters != nil && r.LoadDist != nil && r.StoreDist != nil &&
		r.Committed != 0 && r.Bench != ""
}

// get reads key's result from b: bytes that do not decode to a result
// passing ValidResult are a miss.
func get(b blob.Store, key string) (*cpu.Result, bool) {
	raw, ok := b.Get(key)
	if !ok {
		return nil, false
	}
	var r cpu.Result
	if json.Unmarshal(raw, &r) != nil || !ValidResult(&r) {
		return nil, false
	}
	return &r, true
}

func put(b blob.Store, key string, r *cpu.Result) {
	if raw, err := json.Marshal(r); err == nil {
		_ = b.Put(key, raw) // a lost write costs a recompute, never a wrong result
	}
}

// Over returns the Cache that keeps results as JSON in b, such as a fleet
// coordinator's result store.
func Over(b blob.Store) Cache { return over{b} }

type over struct{ b blob.Store }

func (c over) Get(key string) (*cpu.Result, bool) { return get(c.b, key) }
func (c over) Put(key string, r *cpu.Result)      { put(c.b, key, r) }

// MemCache is an in-process Cache of result pointers: a hit returns the
// stored *cpu.Result itself, with no encoding either way. The zero value is
// not usable; call NewMemCache.
type MemCache struct {
	mu sync.RWMutex
	m  map[string]*cpu.Result
}

// NewMemCache returns an empty in-memory cache.
func NewMemCache() *MemCache {
	return &MemCache{m: make(map[string]*cpu.Result)}
}

// Get implements Cache.
func (c *MemCache) Get(key string) (*cpu.Result, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.m[key]
	return r, ok
}

// Put implements Cache.
func (c *MemCache) Put(key string, r *cpu.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = r
}

// Len returns the number of cached results.
func (c *MemCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// DiskCache persists results as one <key>.json file per job key, so sweeps
// cache across processes (cmd/elsqsweep -cachedir). Corrupt, unreadable or
// implausible entries are misses.
type DiskCache struct{ *blob.Disk }

// NewDiskCache opens (creating if needed) a disk cache rooted at dir.
func NewDiskCache(dir string) (*DiskCache, error) {
	d, err := blob.OpenDisk(dir, ".json", 0)
	if err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	return &DiskCache{d}, nil
}

// Get implements Cache.
func (c *DiskCache) Get(key string) (*cpu.Result, bool) { return get(c.Disk, key) }

// Put implements Cache.
func (c *DiskCache) Put(key string, r *cpu.Result) { put(c.Disk, key, r) }
