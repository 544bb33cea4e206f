package mem

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 32B lines = 256 bytes.
	return NewCache(config.CacheConfig{SizeBytes: 256, Ways: 2, LineBytes: 32, LatencyCycles: 1})
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := smallCache()
	if _, hit := c.Access(0x1000); hit {
		t.Fatal("cold access hit")
	}
	if _, ok := c.Allocate(0x1000); !ok {
		t.Fatal("allocate failed on empty set")
	}
	if _, hit := c.Access(0x1000); !hit {
		t.Fatal("access after allocate missed")
	}
	if _, hit := c.Access(0x101F); !hit {
		t.Fatal("same-line access missed")
	}
	if _, hit := c.Access(0x1020); hit {
		t.Fatal("next-line access hit")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Errorf("counters = %d/%d, want 4/2", c.Accesses, c.Misses)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	c := smallCache()
	// Three conflicting lines in a 2-way set: set = (addr>>5) & 3.
	a := uint64(0x0000) // set 0
	b := uint64(0x0080) // set 0 (0x80>>5 = 4, &3 = 0)
	d := uint64(0x0100) // set 0
	c.Allocate(a)
	c.Allocate(b)
	c.Access(a) // a is MRU, b is LRU
	c.Allocate(d)
	if _, hit := c.Lookup(b); hit {
		t.Error("LRU line b survived replacement")
	}
	if _, hit := c.Lookup(a); !hit {
		t.Error("MRU line a was evicted")
	}
}

func TestCacheLocking(t *testing.T) {
	c := smallCache()
	a, b, d := uint64(0x0000), uint64(0x0080), uint64(0x0100)
	sa, _ := c.Allocate(a)
	sb, _ := c.Allocate(b)
	c.Lock(sa)
	c.Lock(sb)
	if got := c.LockedInSet(a); got != 2 {
		t.Fatalf("LockedInSet = %d, want 2", got)
	}
	if _, ok := c.Allocate(d); ok {
		t.Fatal("allocated into a fully locked set")
	}
	c.Unlock(sb)
	slot, ok := c.Allocate(d)
	if !ok {
		t.Fatal("allocate failed after unlock")
	}
	if slot != sb {
		t.Errorf("victim slot = %+v, want the unlocked %+v", slot, sb)
	}
	if _, hit := c.Lookup(a); !hit {
		t.Error("locked line a was evicted")
	}
	if !c.Locked(sa) {
		t.Error("Locked(sa) = false")
	}
}

func TestCacheLockNesting(t *testing.T) {
	c := smallCache()
	s, _ := c.Allocate(0)
	c.Lock(s)
	c.Lock(s)
	c.Unlock(s)
	if !c.Locked(s) {
		t.Error("nested lock released too early")
	}
	c.Unlock(s)
	if c.Locked(s) {
		t.Error("lock not released")
	}
}

func TestUnlockPanicsWhenUnlocked(t *testing.T) {
	c := smallCache()
	s, _ := c.Allocate(0)
	defer func() {
		if recover() == nil {
			t.Error("Unlock on unlocked line did not panic")
		}
	}()
	c.Unlock(s)
}

func TestSlotIndexDense(t *testing.T) {
	c := smallCache()
	seen := make(map[int]bool)
	for set := 0; set < 4; set++ {
		for way := 0; way < 2; way++ {
			i := c.SlotIndex(LineSlot{Set: set, Way: way})
			if i < 0 || i >= c.NumSlots() {
				t.Fatalf("slot index %d out of range", i)
			}
			if seen[i] {
				t.Fatalf("slot index %d duplicated", i)
			}
			seen[i] = true
		}
	}
}

func TestCacheTagDisambiguation(t *testing.T) {
	// Two addresses with same set index but different tags must not alias.
	c := smallCache()
	c.Allocate(0x0000)
	if _, hit := c.Lookup(0x0080); hit {
		t.Error("tag aliasing: 0x80 hit after allocating 0x0")
	}
}

// Property: after allocating an address, looking it up hits, and the hit
// slot round-trips through SlotIndex.
func TestCacheAllocateLookupProperty(t *testing.T) {
	cfg := config.CacheConfig{SizeBytes: 2048, Ways: 4, LineBytes: 32, LatencyCycles: 1}
	f := func(addrs []uint64) bool {
		c := NewCache(cfg)
		for _, a := range addrs {
			a %= 1 << 30
			if _, ok := c.Allocate(a); !ok {
				return false
			}
			if _, hit := c.Lookup(a); !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(&cfg)
	lvl, lat := h.Access(0x40000)
	if lvl != LevelMem || lat != 400 {
		t.Errorf("cold access = %v/%d, want mem/400", lvl, lat)
	}
	lvl, lat = h.Access(0x40000)
	if lvl != LevelL1 || lat != 1 {
		t.Errorf("second access = %v/%d, want L1/1", lvl, lat)
	}
	if h.Latency(LevelL2) != 10 {
		t.Errorf("L2 latency = %d", h.Latency(LevelL2))
	}
	if h.L1Accesses != 2 {
		t.Errorf("L1Accesses = %d", h.L1Accesses)
	}
}

func TestHierarchyL2Inclusion(t *testing.T) {
	cfg := config.Default()
	// Tiny L1 so we can evict from L1 while L2 retains.
	cfg.L1 = config.CacheConfig{SizeBytes: 128, Ways: 1, LineBytes: 32, LatencyCycles: 1}
	h := NewHierarchy(&cfg)
	h.Access(0x0000)
	// Evict set 0 of L1 (4 sets, direct mapped): 0x80 maps to set 0.
	h.Access(0x0080)
	lvl, lat := h.Access(0x0000)
	if lvl != LevelL2 || lat != 10 {
		t.Errorf("L1-evicted access = %v/%d, want L2/10", lvl, lat)
	}
}

func TestHierarchyProbeDoesNotPerturb(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(&cfg)
	h.Access(0x1234)
	before := h.L1.Accesses
	if lvl := h.Probe(0x1234); lvl != LevelL1 {
		t.Errorf("Probe = %v, want L1", lvl)
	}
	if lvl := h.Probe(0x999999); lvl != LevelMem {
		t.Errorf("Probe cold = %v, want mem", lvl)
	}
	if h.L1.Accesses != before {
		t.Error("Probe perturbed counters")
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelMem.String() != "mem" {
		t.Error("Level strings wrong")
	}
}

func TestMissRate(t *testing.T) {
	c := smallCache()
	if c.MissRate() != 0 {
		t.Error("idle miss rate nonzero")
	}
	c.Access(0)
	c.Allocate(0)
	c.Access(0)
	if mr := c.MissRate(); mr != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", mr)
	}
}

func TestNewCachePanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two sets accepted")
		}
	}()
	NewCache(config.CacheConfig{SizeBytes: 96, Ways: 1, LineBytes: 32})
}

// cacheSink keeps constructed caches on the heap, so allocation counts see
// the same escapes production code does.
var cacheSink *Cache

// TestCacheInArenaAllocatesNoLines pins that a cache carved from an arena
// allocates only its header: no private line array is built and discarded.
func TestCacheInArenaAllocatesNoLines(t *testing.T) {
	cfg := config.Default().L2
	var arena LineArena
	carved := testing.AllocsPerRun(10, func() {
		arena.Reset(cfg.Lines())
		cacheSink = NewCacheIn(cfg, &arena)
	})
	private := testing.AllocsPerRun(10, func() { cacheSink = NewCacheIn(cfg, nil) })
	if carved != private-1 {
		t.Errorf("arena-carved cache makes %.0f allocations, private one %.0f; want exactly one fewer (the line array)",
			carved, private)
	}
}

// TestLineArenaResetZeroes checks that a reused arena hands out lines
// indistinguishable from fresh ones.
func TestLineArenaResetZeroes(t *testing.T) {
	cfg := config.Default().L1
	var arena LineArena
	arena.Reset(cfg.Lines())
	used := NewCacheIn(cfg, &arena)
	for a := uint64(0); a < 1<<16; a += 64 {
		used.Access(a)
	}
	arena.Reset(cfg.Lines())
	reused := NewCacheIn(cfg, &arena)
	fresh := NewCache(cfg)
	if !reflect.DeepEqual(reused.State(), fresh.State()) {
		t.Fatal("a cache carved from a reset arena differs from a fresh one")
	}
}
