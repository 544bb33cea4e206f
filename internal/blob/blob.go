// Package blob is the content-addressed byte store under every artifact
// family the simulator keeps: warm-up checkpoints (internal/ckpt), sweep
// results (internal/sweep) and .elt traces (internal/fleet). A Store maps a
// key — a content address such as a ckpt.Key, a sweep job key or a trace
// digest — to opaque bytes. It knows nothing of what the bytes mean: each
// family keeps its codec and its validity check at the edge, and reads
// anything that fails them as a miss.
//
// Four implementations compose:
//
//   - Mem holds bytes in process memory.
//   - Disk keeps one file per key in a directory, written atomically
//     (temp file + rename), with an optional size budget.
//   - Remote reaches a fleet coordinator's /v1/blob/{space}/{key} space
//     through a Transport (fleet.Client).
//   - Layered stacks a local store over a remote one: reads back-fill the
//     local layer, writes go through to both.
//
// A Get that fails for any reason is a miss: the caller recomputes, or
// reports the artifact missing.
package blob

import (
	"context"
	"errors"
	"sync"
)

// Store is a content-addressed byte store. Implementations are safe for
// concurrent use. The bytes Get returns belong to the store and must not be
// modified; Put does not retain b.
type Store interface {
	// Get returns the bytes stored under key. It reports false when the
	// key is absent or cannot be read.
	Get(key string) ([]byte, bool)
	// Put stores b under key. Keys are content addresses, so re-putting a
	// key stores the same bytes again.
	Put(key string, b []byte) error
}

// Mem is an in-process Store. The zero value is not usable; call NewMem.
type Mem struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[string][]byte)} }

// Get implements Store.
func (s *Mem) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.m[key]
	return b, ok
}

// Put implements Store. It keeps a copy of b.
func (s *Mem) Put(key string, b []byte) error {
	b = append([]byte(nil), b...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = b
	return nil
}

// Len returns the number of stored keys.
func (s *Mem) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Layered is a Store that puts a fast local store in front of a shared
// remote one. Get prefers Local and back-fills it from a Remote hit; Put
// writes through to both. This is what lets one fleet worker's checkpoint
// build serve every worker while repeat reads stay local.
type Layered struct {
	// Local is consulted first and back-filled.
	Local Store
	// Remote is consulted on a Local miss.
	Remote Store
}

// Get implements Store. A failed back-fill does not fail the read.
func (l Layered) Get(key string) ([]byte, bool) {
	if b, ok := l.Local.Get(key); ok {
		return b, true
	}
	b, ok := l.Remote.Get(key)
	if ok {
		_ = l.Local.Put(key, b)
	}
	return b, ok
}

// Put implements Store; it returns the failures of both layers.
func (l Layered) Put(key string, b []byte) error {
	return errors.Join(l.Local.Put(key, b), l.Remote.Put(key, b))
}

// Transport moves blobs to and from a remote blob space. fleet.Client
// implements it over the coordinator's /v1/blob/{space}/{key} routes,
// verifying every transfer's sha256.
type Transport interface {
	// BlobGet fetches the blob stored under key in space.
	BlobGet(ctx context.Context, space, key string) ([]byte, error)
	// BlobPut stores body under key in space.
	BlobPut(ctx context.Context, space, key string, body []byte) error
}

// Remote is a Store over one blob space of a remote service.
type Remote struct {
	ctx   context.Context
	t     Transport
	space string
}

// NewRemote returns the Store for space reached through t; ctx bounds every
// transfer.
func NewRemote(ctx context.Context, t Transport, space string) *Remote {
	return &Remote{ctx: ctx, t: t, space: space}
}

// Get implements Store. Any transfer failure is a miss.
func (r *Remote) Get(key string) ([]byte, bool) {
	b, err := r.t.BlobGet(r.ctx, r.space, key)
	return b, err == nil
}

// Put implements Store.
func (r *Remote) Put(key string, b []byte) error {
	return r.t.BlobPut(r.ctx, r.space, key, b)
}
