package mem

// Cache and hierarchy checkpointing: CacheState / HierarchyState are the
// serialisable images of the warm memory state a functional warm-up leaves
// behind. Restoring them onto a freshly built hierarchy of identical
// geometry is bit-equivalent to replaying the warm-up's access sequence —
// lines, LRU ticks, the use clock and the hit/miss counters all carry over,
// so a resumed simulation observes exactly the caches a fresh run would.

import (
	"encoding/binary"
	"fmt"
)

// lineStateBytes is the packed on-disk size of one line: tagv (8 bytes),
// use (4), locks (4), little-endian.
const lineStateBytes = 16

// CacheState is the serialisable image of one cache level.
type CacheState struct {
	// Sets, Ways and LineBytes pin the geometry the image belongs to;
	// SetState refuses a mismatch.
	Sets      int `json:"sets"`
	Ways      int `json:"ways"`
	LineBytes int `json:"line_bytes"`
	// UseClock is the LRU clock.
	UseClock uint32 `json:"use_clock"`
	// Accesses and Misses are the lookup/miss counters.
	Accesses uint64 `json:"accesses"`
	Misses   uint64 `json:"misses"`
	// Lines holds every line's bookkeeping, set-major, lineStateBytes each.
	// The L2 image dominates a checkpoint's size, so ckpt's snapshot codec
	// stores both images raw, outside the JSON it uses for the other fields.
	Lines []byte `json:"lines"`
}

// State captures the cache's complete mutable state.
func (c *Cache) State() *CacheState {
	st := &CacheState{
		Sets:      c.cfg.Sets(),
		Ways:      c.ways,
		LineBytes: c.cfg.LineBytes,
		UseClock:  c.useClock,
		Accesses:  c.Accesses,
		Misses:    c.Misses,
		Lines:     make([]byte, len(c.lines)*lineStateBytes),
	}
	for i, l := range c.lines {
		b := st.Lines[i*lineStateBytes:]
		binary.LittleEndian.PutUint64(b, l.tagv)
		binary.LittleEndian.PutUint32(b[8:], l.use)
		binary.LittleEndian.PutUint32(b[12:], uint32(l.locks))
	}
	return st
}

// SetState overwrites the cache's state with a captured image. The image's
// geometry must match the cache's; the image itself is only read, so one
// image may restore many caches concurrently.
func (c *Cache) SetState(st *CacheState) error {
	if st.Sets != c.cfg.Sets() || st.Ways != c.ways || st.LineBytes != c.cfg.LineBytes {
		return fmt.Errorf("mem: state geometry %dx%dx%dB does not match cache %dx%dx%dB",
			st.Sets, st.Ways, st.LineBytes, c.cfg.Sets(), c.ways, c.cfg.LineBytes)
	}
	if len(st.Lines) != len(c.lines)*lineStateBytes {
		return fmt.Errorf("mem: state image is %d bytes, want %d", len(st.Lines), len(c.lines)*lineStateBytes)
	}
	for i := range c.lines {
		b := st.Lines[i*lineStateBytes:]
		c.lines[i] = line{
			tagv:  binary.LittleEndian.Uint64(b),
			use:   binary.LittleEndian.Uint32(b[8:]),
			locks: int32(binary.LittleEndian.Uint32(b[12:])),
		}
	}
	c.useClock = st.UseClock
	c.Accesses = st.Accesses
	c.Misses = st.Misses
	return nil
}

// HierarchyState is the serialisable image of the whole memory hierarchy.
type HierarchyState struct {
	L1 *CacheState `json:"l1"`
	L2 *CacheState `json:"l2"`
	// L1Accesses is the hierarchy-level data-cache access counter.
	L1Accesses uint64 `json:"l1_accesses"`
}

// State captures both cache levels and the hierarchy counters.
func (h *Hierarchy) State() *HierarchyState {
	return &HierarchyState{L1: h.L1.State(), L2: h.L2.State(), L1Accesses: h.L1Accesses}
}

// SetState restores both cache levels and the hierarchy counters.
func (h *Hierarchy) SetState(st *HierarchyState) error {
	if st == nil || st.L1 == nil || st.L2 == nil {
		return fmt.Errorf("mem: incomplete hierarchy state")
	}
	if err := h.L1.SetState(st.L1); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := h.L2.SetState(st.L2); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	h.L1Accesses = st.L1Accesses
	return nil
}
