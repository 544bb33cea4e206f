// Package mem implements the simulated memory hierarchy: set-associative
// write-allocate caches with true LRU replacement and per-line locking (the
// line-based Epoch Resolution Table pins referenced lines in the L1, Section
// 3.4 of the paper), backed by a fixed-latency main memory.
package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
)

// line is one cache line's bookkeeping, packed to 16 bytes so a 4-way set
// probe touches a single cache line of host memory: the simulated L2 alone
// spans megabytes, and the warm-up loop is bound by misses on this array.
type line struct {
	// tagv holds tag<<1 | valid.
	tagv uint64
	// use is the last-use tick for LRU (see Cache.useClock).
	use uint32
	// locks counts active ERT references pinning this line (line-based ERT
	// only). A line with locks > 0 is never replaced.
	locks int32
}

func (l *line) valid() bool    { return l.tagv&1 != 0 }
func mkTagv(tag uint64) uint64 { return tag<<1 | 1 }

// Cache is a single set-associative cache level with LRU replacement and
// line locking.
type Cache struct {
	cfg config.CacheConfig
	// lines is the flat set-major line array: set s occupies
	// lines[s*ways : (s+1)*ways]. Flat indexing keeps a probe to one
	// bounds check and no slice-header hop.
	lines    []line
	ways     int
	setShift uint // log2(line bytes)
	tagShift uint // log2(line bytes * set count)
	setMask  uint64
	// useClock ticks per access for LRU ordering. It is renormalised when
	// it would wrap uint32 (every ~4.3G accesses) by compacting every
	// set's use ticks to their per-set LRU rank, which preserves
	// replacement order exactly — victims are only ever chosen within a
	// set, so cross-set rank collisions are harmless.
	useClock uint32
	// Accesses and Misses count every lookup and every miss.
	Accesses, Misses uint64
}

// NewCache builds a cache from its geometry. It panics on degenerate
// geometry; validate configs with config.Validate first.
func NewCache(cfg config.CacheConfig) *Cache {
	return NewCacheIn(cfg, nil)
}

// LineArena is a contiguous pool of cache-line bookkeeping records shared
// by several caches: the batch engine carves every lane's L1 and L2 line
// arrays from one arena so same-geometry lanes sit adjacent in host
// memory. An arena must be sized with Reset — to HierarchyLines per lane,
// or cfg.Lines() per cache — before construction; carving past the end
// panics. The zero LineArena is empty.
type LineArena struct {
	lines []line
	off   int
}

// Reset empties the arena and sizes it to n zeroed line records, reusing
// its storage when that is large enough, so one arena can back successive
// batches. Caches carved before a Reset must no longer be used.
func (a *LineArena) Reset(n int) {
	if cap(a.lines) < n {
		a.lines = make([]line, n)
	} else {
		a.lines = a.lines[:n]
		clear(a.lines)
	}
	a.off = 0
}

// take carves n zeroed line records off the arena.
func (a *LineArena) take(n int) []line {
	if a.off+n > len(a.lines) {
		panic(fmt.Sprintf("mem: line arena exhausted: need %d of %d remaining", n, len(a.lines)-a.off))
	}
	s := a.lines[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// NewCacheIn is NewCache with the line array carved from arena (nil arena
// allocates privately, exactly like NewCache).
func NewCacheIn(cfg config.CacheConfig, arena *LineArena) *Cache {
	nsets := cfg.Sets()
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("mem: set count %d must be a positive power of two", nsets))
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("mem: line size %d must be a power of two", cfg.LineBytes))
	}
	var lines []line
	if arena != nil {
		lines = arena.take(nsets * cfg.Ways)
	} else {
		lines = make([]line, nsets*cfg.Ways)
	}
	setShift := uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	return &Cache{
		cfg:      cfg,
		lines:    lines,
		ways:     cfg.Ways,
		setShift: setShift,
		tagShift: setShift + uint(bits.TrailingZeros(uint(nsets))),
		setMask:  uint64(nsets - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

// setIndex returns the set holding addr.
func (c *Cache) setIndex(addr uint64) uint64 { return (addr >> c.setShift) & c.setMask }

// tagOf returns the tag of addr. The set count is a power of two (enforced
// by NewCache), so the division is a shift.
func (c *Cache) tagOf(addr uint64) uint64 { return addr >> c.tagShift }

// LineSlot identifies a physical line (set, way) for the line-based ERT.
type LineSlot struct {
	Set, Way int
}

// SlotIndex returns a dense index for the slot, suitable for table indexing.
func (c *Cache) SlotIndex(s LineSlot) int { return s.Set*c.cfg.Ways + s.Way }

// NumSlots returns the number of physical lines.
func (c *Cache) NumSlots() int { return len(c.lines) }

// Lookup probes the cache without allocating. It returns the slot on hit.
func (c *Cache) Lookup(addr uint64) (LineSlot, bool) {
	set := int(c.setIndex(addr))
	tagv := mkTagv(c.tagOf(addr))
	base := set * c.ways
	for w, l := range c.lines[base : base+c.ways] {
		if l.tagv == tagv {
			return LineSlot{Set: set, Way: w}, true
		}
	}
	return LineSlot{}, false
}

// Access performs a lookup, updates LRU, and reports hit/miss. On a miss it
// does NOT allocate; callers use Allocate so fills from the next level are
// explicit.
func (c *Cache) Access(addr uint64) (LineSlot, bool) {
	c.Accesses++
	c.tick()
	set := int(c.setIndex(addr))
	tagv := mkTagv(c.tagOf(addr))
	base := set * c.ways
	ways := c.lines[base : base+c.ways]
	for w := range ways {
		l := &ways[w]
		if l.tagv == tagv {
			l.use = c.useClock
			return LineSlot{Set: set, Way: w}, true
		}
	}
	c.Misses++
	return LineSlot{}, false
}

// tick advances the LRU clock, renormalising on uint32 wrap.
func (c *Cache) tick() {
	c.useClock++
	if c.useClock == ^uint32(0) {
		c.renormalise()
	}
}

// renormalise rewinds the LRU clock by compacting every set's use ticks to
// their per-set recency rank (0 = least recent). The earlier saturating
// downshift collapsed the older half of the tick range to zero, so a line
// still warm relative to its set-mates could tie with — and, sitting in an
// earlier way, lose to — a line idle for billions of accesses; rank
// compaction keeps every set's replacement order bit-exact across the wrap.
// Invalid lines (use 0, never above a valid line's tick) keep the lowest
// ranks and remain the preferred victims.
func (c *Cache) renormalise() {
	ranked := make([]uint32, c.ways) // renormalisation is ~once per 4.3G accesses
	for base := 0; base < len(c.lines); base += c.ways {
		set := c.lines[base : base+c.ways]
		for w := range set {
			var rank uint32
			for v := range set {
				if set[v].use < set[w].use || (set[v].use == set[w].use && v < w) {
					rank++
				}
			}
			ranked[w] = rank
		}
		for w := range set {
			set[w].use = ranked[w]
		}
	}
	// Strictly above every line's rank, so the renorm-triggering access
	// stamps a fresh maximum exactly as any other access would.
	c.useClock = uint32(c.ways)
}

// Allocate fills addr's line, evicting the LRU unlocked line. It returns the
// slot and ok=false when every way in the set is locked (the line-ERT
// overflow case the paper resolves by stalling or squashing).
func (c *Cache) Allocate(addr uint64) (LineSlot, bool) {
	set := int(c.setIndex(addr))
	tagv := mkTagv(c.tagOf(addr))
	c.tick()
	ways := c.lines[set*c.ways : set*c.ways+c.ways]
	// Already present (e.g. racing fill): refresh.
	for w := range ways {
		l := &ways[w]
		if l.tagv == tagv {
			l.use = c.useClock
			return LineSlot{Set: set, Way: w}, true
		}
	}
	return c.fill(set, tagv, ways)
}

// allocateMissed is Allocate for a caller that just observed a miss on addr
// with no intervening cache operations: the presence re-probe is skipped.
func (c *Cache) allocateMissed(addr uint64) (LineSlot, bool) {
	set := int(c.setIndex(addr))
	tagv := mkTagv(c.tagOf(addr))
	c.tick()
	return c.fill(set, tagv, c.lines[set*c.ways:set*c.ways+c.ways])
}

// fill victimises the LRU unlocked way of the set and installs tagv.
func (c *Cache) fill(set int, tagv uint64, ways []line) (LineSlot, bool) {
	victim := -1
	var oldest uint32 = ^uint32(0)
	for w := range ways {
		l := &ways[w]
		if l.locks > 0 {
			continue
		}
		if !l.valid() {
			victim = w
			break
		}
		if l.use < oldest {
			oldest = l.use
			victim = w
		}
	}
	if victim < 0 {
		return LineSlot{}, false // all ways locked
	}
	ways[victim] = line{tagv: tagv, use: c.useClock}
	return LineSlot{Set: set, Way: victim}, true
}

// Lock pins the line at slot against replacement. Locks nest.
func (c *Cache) Lock(s LineSlot) { c.lines[s.Set*c.ways+s.Way].locks++ }

// Unlock releases one lock on the line at slot.
func (c *Cache) Unlock(s LineSlot) {
	l := &c.lines[s.Set*c.ways+s.Way]
	if l.locks <= 0 {
		panic("mem: unlock of unlocked line")
	}
	l.locks--
}

// Locked reports whether the line at slot has any active locks.
func (c *Cache) Locked(s LineSlot) bool { return c.lines[s.Set*c.ways+s.Way].locks > 0 }

// LockedInSet returns how many ways of addr's set are currently locked.
func (c *Cache) LockedInSet(addr uint64) int {
	set := int(c.setIndex(addr))
	n := 0
	for w := 0; w < c.ways; w++ {
		if c.lines[set*c.ways+w].locks > 0 {
			n++
		}
	}
	return n
}

// MissRate returns Misses/Accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}
