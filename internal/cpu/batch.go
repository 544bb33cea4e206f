package cpu

import (
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/lsq"
	"repro/internal/mem"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/workload"
)

// batchMemOpPool is how many store MemOp records are pre-seeded into each
// lane's StoreIndex recycling pool when the lane is built by NewBatch. The
// steady-state store window is bounded by the retirement horizon to a few
// thousand records, so this covers it and the per-store path never grows the
// heap; a scalar New keeps the original grow-on-demand behaviour.
const batchMemOpPool = 4096

// laneArena carves one batch's hot arrays — calendar slots, ring times,
// cache lines, StoreIndex bucket tables and MemOp pools — out of a handful
// of contiguous slabs, one structure-of-arrays slab per element type, with
// each lane's block adjacent to its neighbours'. A nil *laneArena is valid
// everywhere and means "allocate privately" (the scalar path), so newSim is
// written once against the arena API.
type laneArena struct {
	u64   []uint64
	i64   []int64
	ptr   []*lsq.MemOp
	ops   []lsq.MemOp
	lines *mem.LineArena
}

// slabPool recycles the slabs of finished batches, each as a *laneArena
// spanning them in full, so a sweep running many lane groups allocates
// (and page-faults) its lane state once per concurrent batch instead of
// once per group. Every reuse is resliced and cleared, so a lane built on
// recycled slabs is byte-identical to one built on fresh memory.
var slabPool sync.Pool

// fit returns n zeroed elements, reusing s's backing array when it is
// large enough.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (a *laneArena) takeU64(n int) []uint64 {
	s := a.u64[:n:n]
	a.u64 = a.u64[n:]
	return s
}

func (a *laneArena) takeI64(n int) []int64 {
	s := a.i64[:n:n]
	a.i64 = a.i64[n:]
	return s
}

func (a *laneArena) takePtr(n int) []*lsq.MemOp {
	s := a.ptr[:n:n]
	a.ptr = a.ptr[n:]
	return s
}

func (a *laneArena) takeOps(n int) []lsq.MemOp {
	s := a.ops[:n:n]
	a.ops = a.ops[n:]
	return s
}

// calendar builds one resource calendar at the given horizon, carving its
// slot ring from the shared slab when batched.
func (a *laneArena) calendar(width, horizon int) *sched.Calendar {
	if a == nil {
		return sched.NewCalendar(width, horizon)
	}
	return sched.NewCalendarIn(width, horizon, a.takeU64(sched.CalendarSlots(horizon)))
}

// ring builds one occupancy ring (non-positive capacity = unlimited, which
// has no storage to carve).
func (a *laneArena) ring(capacity int) *sched.Ring {
	if a == nil || capacity <= 0 {
		return sched.NewRing(capacity)
	}
	return sched.NewRingIn(capacity, a.takeI64(capacity))
}

// lineArena returns the shared cache-line arena, or nil for private
// allocation.
func (a *laneArena) lineArena() *mem.LineArena {
	if a == nil {
		return nil
	}
	return a.lines
}

// classifier builds one lane's execution-locality classifier, carving its
// predictor-table words from the shared slab when batched (zero words for
// the reactive policy).
func (a *laneArena) classifier(cfg *config.Config) predict.Classifier {
	if a == nil {
		return predict.New(cfg)
	}
	return predict.NewIn(cfg, a.takeU64(predict.TableWords(cfg)))
}

// storeIndex builds one lane's StoreIndex, with a slab-backed bucket table
// and a pre-seeded record pool when batched.
func (a *laneArena) storeIndex() *lsq.StoreIndex {
	if a == nil {
		return lsq.NewStoreIndex()
	}
	ix := lsq.NewStoreIndexIn(a.takePtr(lsq.StoreIndexBuckets()))
	ix.SeedPool(a.takeOps(batchMemOpPool))
	return ix
}

// NewBatch builds one simulator per (cfgs[i], gens[i]) pair with every
// lane's hot arrays carved from shared contiguous slabs, so a driver
// advancing the lanes in lockstep (internal/batch) walks adjacent memory
// instead of pointer-chasing K independently allocated heaps. The slices
// must be the same non-zero length. Each returned Sim is bit-identical in
// behaviour to New(cfgs[i], gens[i]) — only the placement of its backing
// arrays differs.
//
// The slabs come from a pool shared by all batches. Once every lane has
// finished and its Result has been taken, the caller calls release to hand
// them back; no Sim of the batch may be used after that. A caller that
// abandons a batch may skip release and leave the slabs to the collector.
func NewBatch(cfgs []config.Config, gens []workload.Source) (sims []*Sim, release func(), err error) {
	if len(cfgs) == 0 || len(cfgs) != len(gens) {
		return nil, nil, fmt.Errorf("cpu: batch wants equal non-zero config and source counts, got %d and %d", len(cfgs), len(gens))
	}
	// Validate everything before sizing so the slab pass can trust the
	// geometry (Lines(), WindowSize() etc. assume a valid config).
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, nil, fmt.Errorf("cpu: batch lane %d: %w", i, err)
		}
	}
	var nu64, ni64, nptr, nops, nlines int
	for i := range cfgs {
		nu64 += calendarsFor(&cfgs[i]) * sched.CalendarSlots(calHorizonFor(&cfgs[i]))
		nu64 += predict.TableWords(&cfgs[i])
		for _, c := range ringCapsFor(&cfgs[i]) {
			if c > 0 {
				ni64 += c
			}
		}
		nptr += lsq.StoreIndexBuckets()
		nops += batchMemOpPool
		nlines += mem.HierarchyLines(&cfgs[i])
	}
	full, _ := slabPool.Get().(*laneArena)
	if full == nil {
		full = &laneArena{lines: new(mem.LineArena)}
	}
	full.u64 = fit(full.u64, nu64)
	full.i64 = fit(full.i64, ni64)
	full.ptr = fit(full.ptr, nptr)
	full.ops = fit(full.ops, nops)
	full.lines.Reset(nlines)
	ar := *full // carving advances this copy; full keeps spanning the slabs
	sims = make([]*Sim, len(cfgs))
	for i := range cfgs {
		s, err := newSim(cfgs[i], gens[i], &ar)
		if err != nil {
			slabPool.Put(full)
			return nil, nil, fmt.Errorf("cpu: batch lane %d: %w", i, err)
		}
		sims[i] = s
	}
	return sims, func() { slabPool.Put(full) }, nil
}
