package lsq

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// storeStream drives a StoreIndex the way the pipeline model does: stores
// arrive in program order with Commit set and non-decreasing, dispatch
// advances, and a few addresses recur so block chains grow past length one.
// It keeps every store ever added for brute-force comparison.
type storeStream struct {
	x        uint64
	ix       *StoreIndex
	all      []*MemOp
	seq      uint64
	dispatch int64
	commit   int64
}

func (s *storeStream) next(n uint64) uint64 {
	s.x = s.x*6364136223846793005 + 1442695040888963407
	return (s.x >> 33) % n
}

// addr returns a naturally aligned address of the given size inside a small
// pool of 8-byte blocks.
func (s *storeStream) addr(size uint8) uint64 {
	return 0x4000 + s.next(48)*8 + s.next(uint64(8/size))*uint64(size)
}

func (s *storeStream) size() uint8 { return 1 << s.next(4) }

func (s *storeStream) add() {
	s.seq += 1 + s.next(3)
	s.dispatch += int64(s.next(5))
	addrReady := s.dispatch + 1 + int64(s.next(4))
	if s.next(8) == 0 {
		addrReady += int64(s.next(400)) // address chases a miss
	}
	dataReady := s.dispatch + 1 + int64(s.next(30))
	s.commit = max(s.commit, max(addrReady, dataReady)+int64(s.next(20)))
	size := s.size()
	st := s.ix.NewOp()
	*st = MemOp{Seq: s.seq, Store: true, Addr: s.addr(size), Size: size,
		Dispatch: s.dispatch, AddrReady: addrReady, DataReady: dataReady, Commit: s.commit}
	s.ix.Add(st)
	// The index recycles st once it retires; keep an independent copy.
	cp := *st
	s.all = append(s.all, &cp)
}

// load returns a load younger than every store added so far, sometimes on
// the wrong path.
func (s *storeStream) load() *MemOp {
	size := s.size()
	l := &MemOp{Seq: s.seq + 1 + s.next(4), Addr: s.addr(size), Size: size}
	if s.next(4) == 0 {
		l.Seq |= isa.WrongPathSeqBit
	}
	return l
}

func seqsOf(ops []*MemOp) []uint64 {
	out := make([]uint64, len(ops))
	for i, op := range ops {
		out[i] = op.Seq
	}
	return out
}

// Property: for loads younger than every indexed store, Unresolved agrees
// with a brute-force scan of every store ever added, at any query time.
func TestStoreIndexUnresolvedProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := &storeStream{x: uint64(seed), ix: NewStoreIndex()}
		for i := 0; i < 3000; i++ {
			s.add()
			if s.next(2) == 0 {
				continue
			}
			l := s.load()
			tq := s.dispatch - 600 + int64(s.next(1200))
			want := false
			for _, st := range s.all {
				if st.Seq < l.Seq && st.InFlightAt(tq) && st.AddrReady > tq {
					want = true
					break
				}
			}
			if s.ix.Unresolved(l, tq) != want {
				t.Logf("seed %d store %d: Unresolved(seq %d, t=%d) = %v, brute force %v",
					seed, i, l.Seq, tq, !want, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: once the window has advanced far enough for stores to retire,
// Candidates and CandidatesOracle still agree with a brute-force scan of
// every store ever added, for every query time within the horizon.
func TestStoreIndexRetirementProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := &storeStream{x: uint64(seed), ix: NewStoreIndex()}
		for s.dispatch < 2*retireHorizon {
			s.add()
		}
		live := 0
		for st := s.ix.oldest; st != nil; st = st.fifoNext {
			live++
		}
		if live == 0 || live >= len(s.all) || len(s.ix.freeOps) == 0 {
			t.Logf("seed %d: %d live of %d added, %d recycled: nothing retired",
				seed, live, len(s.all), len(s.ix.freeOps))
			return false
		}
		byBlock := map[uint64][]*MemOp{}
		for _, st := range s.all {
			byBlock[blockOf(st.Addr)] = append(byBlock[blockOf(st.Addr)], st)
		}
		for tq := s.ix.maxDispatch - retireHorizon + 1; tq <= s.ix.maxDispatch+64; tq++ {
			l := s.load()
			var want, wantOracle []*MemOp
			for _, st := range byBlock[blockOf(l.Addr)] {
				if st.Seq < l.Seq && st.InFlightAt(tq) && st.Overlaps(l) {
					wantOracle = append(wantOracle, st)
					if st.AddrReady <= tq {
						want = append(want, st)
					}
				}
			}
			got := seqsOf(s.ix.Candidates(l, tq))
			gotOracle := seqsOf(s.ix.CandidatesOracle(l, tq))
			if !slices.Equal(got, seqsOf(want)) || !slices.Equal(gotOracle, seqsOf(wantOracle)) {
				t.Logf("seed %d t=%d load %#x/%d: Candidates %v want %v; oracle %v want %v",
					seed, tq, l.Addr, l.Size, got, seqsOf(want), gotOracle, seqsOf(wantOracle))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Error(err)
	}
}
