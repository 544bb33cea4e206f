package lsq

// StoreIndex tracks the in-flight store window and answers the queries every
// disambiguation scheme needs in O(candidates) instead of O(window): the
// older overlapping stores for a load (via an 8-byte-block address index;
// with naturally aligned accesses of at most 8 bytes, overlap implies a
// shared block) and the presence of older address-unresolved stores.
//
// The index is an oracle over the simulated program: it knows each store's
// eventual address even before its simulated AddrReady cycle. Queries expose
// only hardware-visible state by filtering on AddrReady and Commit against
// the query cycle, except CandidatesOracle, which the pipeline model uses to
// detect true ordering violations.
//
// The pipeline model Adds each store at its commit, in program order, with
// Commit already set, and every load it queries for is younger than every
// indexed store (wrong-path loads carry isa.WrongPathSeqBit). Under that
// contract Unresolved is O(1): an older store is unresolved at t exactly
// when t < min(AddrReady, Commit), so the answer is a running maximum of
// that bound over every store ever added. A query from a load not younger
// than every indexed store falls back to an exact scan of the live window.
//
// The index owns the store records' storage: the pipeline model obtains each
// store's MemOp from NewOp and the index recycles it once it retires, and
// stores of one block are chained intrusively through the records (youngest
// first), so the steady-state per-store path performs no heap allocation.
// Candidate query results are returned in scratch slices owned by the index
// and are only valid until the next call of the same query.
type StoreIndex struct {
	// buckets is a fixed open-hash table of intrusive store chains,
	// youngest first, indexed by hashed 8-byte block. Blocks that collide
	// share a chain and are told apart by the per-op block check in the
	// queries — pure array writes on Add, no map machinery on the
	// per-store path. The table is sized so the live window (bounded by
	// the retirement horizon) keeps chains near length one.
	buckets []*MemOp
	// oldest and youngest delimit the live stores in Add (commit) order,
	// linked through fifoNext. Each Add retires stores off the old end
	// once their commit is a full horizon behind the youngest dispatch:
	// queries run at most that far behind it, so a retired store could
	// never again be in flight at a query time. The oldest live store is
	// also the oldest — the tail — of its bucket chain, so unlinking it is
	// O(1).
	oldest, youngest *MemOp
	// maxDispatch is the largest dispatch cycle ever Added.
	maxDispatch int64
	// maxSeq is the largest store sequence number ever Added; a load with
	// a larger Seq is younger than every indexed store.
	maxSeq uint64
	// pendMax is the running maximum over every store ever Added of the
	// cycle its in-flight, address-unknown interval ends: min(AddrReady,
	// Commit), or AddrReady while Commit is unset.
	pendMax int64

	// freeOps recycles retired MemOps. A retired store committed a full
	// horizon before the youngest dispatch, so it is long out of every
	// query window and no pipeline reference to it remains.
	freeOps []*MemOp

	candScratch   []*MemOp
	oracleScratch []*MemOp
}

// storeIndexBucketBits sizes the bucket table (1<<bits buckets). The
// retirement horizon bounds live stores to a few thousand, so chains stay
// near length one.
const storeIndexBucketBits = 14

// retireHorizon is how far (in cycles) a store's commit must fall behind
// the youngest dispatch before the index retires it.
const retireHorizon = 1 << 14

// NewStoreIndex returns an empty index.
func NewStoreIndex() *StoreIndex {
	return NewStoreIndexIn(make([]*MemOp, 1<<storeIndexBucketBits))
}

// StoreIndexBuckets returns the bucket-table length every StoreIndex uses,
// the size a caller must allocate per lane when backing indexes with
// NewStoreIndexIn.
func StoreIndexBuckets() int { return 1 << storeIndexBucketBits }

// NewStoreIndexIn is NewStoreIndex over a caller-provided bucket table:
// buckets must hold exactly StoreIndexBuckets() nil entries and must not
// back another index. The batch engine stripes every lane's table into one
// shared slab with it.
func NewStoreIndexIn(buckets []*MemOp) *StoreIndex {
	if len(buckets) != 1<<storeIndexBucketBits {
		panic("lsq: store-index bucket backing size mismatch")
	}
	return &StoreIndex{buckets: buckets}
}

// SeedPool pre-populates the record-recycling pool with MemOps carved from
// ops, so the index's steady-state store window draws from one caller-
// placed slab instead of growing the heap a record at a time. Call it only
// on a fresh index; ops must not be shared with another index.
func (ix *StoreIndex) SeedPool(ops []MemOp) {
	for i := range ops {
		ix.freeOps = append(ix.freeOps, &ops[i])
	}
}

func blockOf(addr uint64) uint64 { return addr >> 3 }

// bucketOf hashes a block to its bucket (Fibonacci hashing).
func bucketOf(b uint64) int {
	return int((b * 0x9E3779B97F4A7C15) >> (64 - storeIndexBucketBits))
}

// NewOp returns a zeroed MemOp for a store that will be Added to the index.
// The record is recycled after the store retires from the index; callers
// must not retain it past that point (the simulator's program-order
// processing guarantees this: all uses of a store finish within its
// in-flight window).
func (ix *StoreIndex) NewOp() *MemOp {
	if n := len(ix.freeOps); n > 0 {
		op := ix.freeOps[n-1]
		ix.freeOps = ix.freeOps[:n-1]
		*op = MemOp{}
		return op
	}
	return &MemOp{}
}

// Add registers a processed store (all its times already computed).
func (ix *StoreIndex) Add(st *MemOp) {
	if !st.Store {
		panic("lsq: StoreIndex.Add of a load")
	}
	i := bucketOf(blockOf(st.Addr))
	st.blockNext, st.blockPrev, st.fifoNext = ix.buckets[i], nil, nil
	if st.blockNext != nil {
		st.blockNext.blockPrev = st
	}
	ix.buckets[i] = st
	if ix.youngest == nil {
		ix.oldest = st
	} else {
		ix.youngest.fifoNext = st
	}
	ix.youngest = st
	ix.maxDispatch = max(ix.maxDispatch, st.Dispatch)
	ix.maxSeq = max(ix.maxSeq, st.Seq)
	pend := st.AddrReady
	if st.Commit != 0 {
		pend = min(pend, st.Commit)
	}
	ix.pendMax = max(ix.pendMax, pend)
	ix.retire()
}

// retire drops stores off the old end of the FIFO while their commit is a
// full horizon behind the youngest dispatch. A store with Commit still
// unset stops the walk: it, and everything younger, stays live.
func (ix *StoreIndex) retire() {
	horizon := ix.maxDispatch - retireHorizon
	for st := ix.oldest; st != nil && st.Commit != 0 && st.Commit <= horizon; st = ix.oldest {
		ix.oldest = st.fifoNext
		if st.blockPrev == nil {
			ix.buckets[bucketOf(blockOf(st.Addr))] = nil
		} else {
			st.blockPrev.blockNext = nil
		}
		ix.freeOps = append(ix.freeOps, st)
	}
	if ix.oldest == nil {
		ix.youngest = nil
	}
}

// Candidates returns the older stores overlapping ld that are in flight at
// t with addresses known to the hardware by t, ascending by age. The
// returned slice is scratch storage owned by the index, valid until the
// next Candidates call.
func (ix *StoreIndex) Candidates(ld *MemOp, t int64) []*MemOp {
	out := ix.candScratch[:0]
	b := blockOf(ld.Addr)
	for st := ix.buckets[bucketOf(b)]; st != nil; st = st.blockNext {
		if blockOf(st.Addr) == b && st.Seq < ld.Seq && st.InFlightAt(t) && st.AddrReady <= t && st.Overlaps(ld) {
			out = append(out, st)
		}
	}
	reverseOps(out)
	ix.candScratch = out
	return out
}

// reverseOps flips a chain walk (youngest first) into ascending age.
func reverseOps(ops []*MemOp) {
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
}

// CandidatesOracle returns every older in-flight store overlapping ld at t
// regardless of address resolution — the ground truth the pipeline model
// uses to detect store→load ordering violations. The returned slice is
// scratch storage owned by the index, valid until the next
// CandidatesOracle call.
func (ix *StoreIndex) CandidatesOracle(ld *MemOp, t int64) []*MemOp {
	out := ix.oracleScratch[:0]
	b := blockOf(ld.Addr)
	for st := ix.buckets[bucketOf(b)]; st != nil; st = st.blockNext {
		if blockOf(st.Addr) == b && st.Seq < ld.Seq && st.InFlightAt(t) && st.Overlaps(ld) {
			out = append(out, st)
		}
	}
	reverseOps(out)
	ix.oracleScratch = out
	return out
}

// Unresolved reports whether any store older than ld and in flight at t had
// an unknown address at t (the no-unresolved-store-filter input). For a load
// younger than every indexed store it is O(1) and exact over every store
// ever added; otherwise it scans the live window.
func (ix *StoreIndex) Unresolved(ld *MemOp, t int64) bool {
	if ld.Seq > ix.maxSeq {
		return ix.pendMax > t
	}
	for st := ix.oldest; st != nil; st = st.fifoNext {
		if st.Seq < ld.Seq && st.InFlightAt(t) && st.AddrReady > t {
			return true
		}
	}
	return false
}
