// Package fmc models the Flexible MultiCore substrate (Pericàs et al., PACT
// 2007) the ELSQ integrates with: the partitioned Memory Processor as a set
// of in-order, 2-way memory engines, the age-ordered epoch lifecycle
// (open → fill → close → commit/squash → bank reuse), and the activity
// accounting behind the paper's Figure 11 (LL-LSQ low-power residency) and
// the "allocated epochs" statistic.
package fmc

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sched"
)

// epochInfo tracks one virtual epoch from open to release.
type epochInfo struct {
	open       int64
	lastSeq    uint64
	lastCommit int64
}

// Release reports an epoch that fully committed: every op of virtual epoch
// V had committed by cycle At.
type Release struct {
	// V is the released virtual epoch.
	V int64
	// At is the commit cycle of its last instruction.
	At int64
	// OK distinguishes a real release from the zero value.
	OK bool
}

// Epochs manages the age-partitioned epoch lifecycle. Virtual epoch ids are
// monotonic; each virtual epoch occupies the physical bank its Placer picks
// (v mod NumEpochs under the default ModN policy) and can only open once
// that bank's previous occupant has fully committed (its checkpoint is
// released). Epochs implements BankMap over its placement record.
type Epochs struct {
	cfg *config.Config
	// placer picks the bank each opening epoch lands on; fab charges
	// epoch-state migration bandwidth when the pick is off the home bank
	// (nil fab = free moves).
	placer Placer
	fab    noc.Fabric
	// curr is the open virtual epoch, or -1.
	curr int64
	// next is the next virtual id to allocate.
	next int64
	// Budgets of the open epoch.
	execs, loads, stores int
	// bankFree[p] is the cycle bank p's previous occupant fully committed.
	bankFree []int64
	// currInfo tracks the open epoch (valid while curr >= 0). Epochs close
	// strictly in order — the previous epoch is released the moment a new
	// one opens — so at most one is ever tracked and no map is needed on
	// the per-migration path.
	currInfo epochInfo

	// cal enforces each memory engine's issue width. Engines are nominally
	// in-order, but waiting instructions live in the slice buffer and
	// re-enter the issue queue only when their producing miss returns
	// (CFP-style), so the observable issue order is readiness order at the
	// engine's width — strict queue-position blocking would falsely
	// serialise independent miss chains that interleave in program order.
	cal []*sched.Calendar

	// bankOf and vOf ring-record the bank of each recent virtual epoch
	// (indexed v & bankMask); vOf guards against the ring wrapping past a
	// still-referenced epoch. The window is far wider than the number of
	// epochs the queues can keep alive at once.
	bankOf   []int32
	vOf      []int64
	bankMask int64
	// prevBank is the bank of the most recently opened epoch (-1 before
	// the first), feeding locality-aware placement.
	prevBank int

	// ActiveCycleSum accumulates (release - open) over all epochs, for the
	// mean-allocated-epochs statistic.
	ActiveCycleSum int64
	// bankActive accumulates the same per bank, for the Figure 11
	// per-engine residency / power-down claim.
	bankActive []int64
	// Steals counts epochs placed off their mod-N home bank.
	Steals uint64
	// Opened counts epochs ever opened.
	Opened uint64
	// Releases counts epochs released (fully committed or force-closed) and
	// Issues counts engine issue-slot reservations; both feed the energy
	// model's epoch-lifecycle and engine-activity actions.
	Releases uint64
	Issues   uint64
	// lastReleased is the most recently released virtual epoch (-1 before
	// the first release). Epochs are age-partitioned, so releases must be
	// strictly monotonic in the virtual id; release asserts this.
	lastReleased int64
}

// NewEpochs builds the epoch manager for the configuration. placer picks
// each opening epoch's bank (nil = the default mod-N interleaving) and fab
// charges epoch-state migration when the pick is off the home bank (nil =
// free moves). alloc builds each engine's issue calendar — the batch engine
// passes an arena-backed allocator; nil allocates privately at a 1<<14
// horizon.
func NewEpochs(cfg *config.Config, placer Placer, fab noc.Fabric, alloc func(width int) *sched.Calendar) *Epochs {
	if placer == nil {
		placer = ModN{}
	}
	if alloc == nil {
		alloc = func(width int) *sched.Calendar { return sched.NewCalendar(width, 1<<14) }
	}
	ring := 64
	for ring < 8*cfg.NumEpochs {
		ring <<= 1
	}
	e := &Epochs{
		cfg:          cfg,
		placer:       placer,
		fab:          fab,
		curr:         -1,
		bankFree:     make([]int64, cfg.NumEpochs),
		cal:          make([]*sched.Calendar, cfg.NumEpochs),
		bankOf:       make([]int32, ring),
		vOf:          make([]int64, ring),
		bankMask:     int64(ring - 1),
		prevBank:     -1,
		bankActive:   make([]int64, cfg.NumEpochs),
		lastReleased: -1,
	}
	for i := range e.cal {
		e.cal[i] = alloc(cfg.MEIssueWidth)
	}
	for i := range e.vOf {
		e.vOf[i] = -1
	}
	return e
}

// Physical returns the mod-N home bank of virtual epoch v — where the
// default placement puts it and where its checkpoint slot natively lives.
// The bank actually hosting v is Bank(v); the two differ only when a
// non-default Placer stole it.
func (e *Epochs) Physical(v int64) int { return int(v % int64(e.cfg.NumEpochs)) }

// Bank implements BankMap: the physical bank hosting virtual epoch v, as
// recorded when v opened. It panics if v is older than the placement ring's
// window (a referenced epoch can never fall out of it) or never opened.
func (e *Epochs) Bank(v int64) int {
	i := v & e.bankMask
	if e.vOf[i] != v {
		panic(fmt.Sprintf("fmc: bank lookup for epoch %d outside the placement window (have %d)", v, e.vOf[i]))
	}
	return int(e.bankOf[i])
}

// Banks returns the number of physical banks (memory engines).
func (e *Epochs) Banks() int { return e.cfg.NumEpochs }

// BankActive returns the per-bank busy-cycle accounting: BankActive()[b] is
// the total cycles bank b spent with an epoch open (the complement of the
// Figure 11 power-down residency). The slice is live; callers must not
// mutate it.
func (e *Epochs) BankActive() []int64 { return e.bankActive }

// Assign places a migrating op (exec: executes on the engine and counts
// toward the 128-instruction budget; load/store: occupies an LL queue
// entry) into the open epoch, opening a new one when a budget is exhausted.
// It returns the virtual epoch, the earliest cycle the op may enter it
// (later than t only when the new epoch's bank is still committing its
// previous occupant), and — when opening a new epoch closed the previous
// one — the release record of the closed epoch (in program-order
// processing, every op of the closed epoch has already been processed, so
// its final commit time is known).
func (e *Epochs) Assign(exec, load, store bool, seq uint64, t int64) (v int64, enterAt int64, rel Release) {
	needNew := e.curr < 0 ||
		(exec && e.execs >= e.cfg.EpochMaxInsts) ||
		(load && e.loads >= e.cfg.EpochMaxLoads) ||
		(store && e.stores >= e.cfg.EpochMaxStores)
	enterAt = t
	if needNew {
		if e.curr >= 0 {
			rel = e.release(e.curr)
		}
		v = e.next
		e.next++
		p := e.placer.Place(v, t, e.prevBank, e.bankFree)
		if e.bankFree[p] > enterAt {
			enterAt = e.bankFree[p]
		}
		if home := e.Physical(v); p != home {
			// Stolen: the epoch's state block must travel from its home
			// bank to the host, charging real mesh bandwidth.
			e.Steals++
			if e.fab != nil {
				enterAt = e.fab.MigrateState(home, p, EpochStateFlits, enterAt)
			}
		}
		i := v & e.bankMask
		e.bankOf[i], e.vOf[i] = int32(p), v
		e.prevBank = p
		e.curr = v
		e.execs, e.loads, e.stores = 0, 0, 0
		e.currInfo = epochInfo{open: enterAt}
		e.Opened++
	} else {
		v = e.curr
	}
	if exec {
		e.execs++
	}
	if load {
		e.loads++
	}
	if store {
		e.stores++
	}
	e.currInfo.lastSeq = seq
	return v, enterAt, rel
}

// release closes epoch v (necessarily the open one) and accounts its
// lifetime. Its last commit time is final because all its members have been
// processed.
func (e *Epochs) release(v int64) Release {
	if v <= e.lastReleased {
		panic(fmt.Sprintf("fmc: epoch release order violated: releasing epoch %d after %d (releases must be strictly monotonic)", v, e.lastReleased))
	}
	e.lastReleased = v
	inf := e.currInfo
	p := e.Bank(v)
	e.bankFree[p] = inf.lastCommit
	e.ActiveCycleSum += inf.lastCommit - inf.open
	e.bankActive[p] += inf.lastCommit - inf.open
	e.Releases++
	e.curr = -1
	return Release{V: v, At: inf.lastCommit, OK: true}
}

// Issue reserves an issue slot on epoch v's engine at the earliest cycle >=
// ready respecting the engine's issue width.
func (e *Epochs) Issue(v int64, ready int64) int64 {
	e.Issues++
	return e.cal[e.Bank(v)].Reserve(ready)
}

// Committed records that the op with sequence seq of virtual epoch v
// committed at cycle t. Commit is in order, so the epoch's last observed
// commit is its release time once it closes. Closed epochs were released
// with their final commit time already known (program-order processing), so
// only the open epoch is updated.
func (e *Epochs) Committed(v int64, seq uint64, t int64) {
	if v == e.curr && t > e.currInfo.lastCommit {
		e.currInfo.lastCommit = t
	}
}

// CloseAll force-closes the open epoch (end of simulation) and returns its
// release record so accounting and filter clearing still happen.
func (e *Epochs) CloseAll() Release {
	if e.curr >= 0 {
		return e.release(e.curr)
	}
	return Release{}
}

// InFlight reports how many epochs are currently allocated (0 or 1: an
// epoch is released the moment its successor opens).
func (e *Epochs) InFlight() int {
	if e.curr >= 0 {
		return 1
	}
	return 0
}
