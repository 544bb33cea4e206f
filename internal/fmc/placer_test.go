package fmc

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/xrand"
)

func analyticFab(w, h int) *noc.Analytic {
	return noc.NewAnalytic(noc.NewBus(4), noc.NewMesh(w, h, 1))
}

// TestBankReuseStallsSmallBanks pins the bank time-exclusivity contract at
// the small engine counts where reuse is constant: a new epoch mapped onto a
// bank whose previous occupant has not finished committing enters at that
// occupant's commit time, never earlier.
func TestBankReuseStallsSmallBanks(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		cfg := config.Default()
		cfg.NumEpochs = n
		cfg.EpochMaxInsts = 1
		e := NewEpochs(&cfg, nil, nil, nil)
		var seq uint64
		// Fill every bank once; each epoch lands on a never-used bank, so
		// none may stall.
		for i := 0; i < n; i++ {
			seq++
			v, enterAt, _ := e.Assign(true, false, false, seq, int64(i))
			if v != int64(i) {
				t.Fatalf("n=%d: epoch %d got virtual id %d", n, i, v)
			}
			if enterAt != int64(i) {
				t.Fatalf("n=%d: epoch %d stalled on a fresh bank: enterAt=%d", n, i, enterAt)
			}
			e.Committed(v, seq, 1000+int64(i)*100)
		}
		// Epoch n wraps onto bank 0, whose occupant commits at cycle 1000.
		seq++
		v, enterAt, rel := e.Assign(true, false, false, seq, 5)
		if v != int64(n) || e.Bank(v) != 0 {
			t.Fatalf("n=%d: wrap epoch %d on bank %d", n, v, e.Bank(v))
		}
		if !rel.OK || rel.V != int64(n-1) {
			t.Fatalf("n=%d: wrap did not release epoch %d: %+v", n, n-1, rel)
		}
		if enterAt != 1000 {
			t.Fatalf("n=%d: bank-reuse stall missing: enterAt=%d, want 1000 (bank 0 free time)", n, enterAt)
		}
	}
}

// TestActiveCycleSumSurvivesCloseAll: the forced end-of-run close must
// account the still-open epoch's lifetime exactly like a natural release, in
// both the global sum and the per-bank residency used for Figure 11.
func TestActiveCycleSumSurvivesCloseAll(t *testing.T) {
	cfg := config.Default()
	cfg.NumEpochs = 2
	cfg.EpochMaxInsts = 1
	e := NewEpochs(&cfg, nil, nil, nil)
	v0, enter0, _ := e.Assign(true, false, false, 1, 10)
	e.Committed(v0, 1, 500)
	v1, enter1, _ := e.Assign(true, false, false, 2, 20)
	if got, want := e.ActiveCycleSum, 500-enter0; got != want {
		t.Fatalf("after first release ActiveCycleSum = %d, want %d", got, want)
	}
	e.Committed(v1, 2, 900)
	rel := e.CloseAll()
	if !rel.OK || rel.V != v1 || rel.At != 900 {
		t.Fatalf("CloseAll release = %+v", rel)
	}
	want := (500 - enter0) + (900 - enter1)
	if e.ActiveCycleSum != want {
		t.Fatalf("ActiveCycleSum lost the forced close: %d, want %d", e.ActiveCycleSum, want)
	}
	ba := e.BankActive()
	if ba[0] != 500-enter0 || ba[1] != 900-enter1 {
		t.Fatalf("BankActive = %v, want [%d %d]", ba, 500-enter0, 900-enter1)
	}
	if e.CloseAll().OK {
		t.Fatal("second CloseAll released something")
	}
}

// TestEnterAtRespectsBankFree drives every placement policy over a random
// epoch stream and checks the invariant placement must never break: an epoch
// may not enter its bank before the bank's previous occupant committed, and
// never before the opening op arrived.
func TestEnterAtRespectsBankFree(t *testing.T) {
	policies := []struct {
		name string
		mk   func(fab noc.Fabric) Placer
	}{
		{"modn", func(noc.Fabric) Placer { return ModN{} }},
		{"leastloaded", func(fab noc.Fabric) Placer { return &LeastLoaded{Fab: fab} }},
		{"steal", func(fab noc.Fabric) Placer { return &Steal{Fab: fab} }},
	}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.NumEpochs = 4
			cfg.EpochMaxInsts = 1
			fab := analyticFab(4, 1)
			e := NewEpochs(&cfg, pol.mk(fab), fab, nil)
			r := xrand.New(7)
			shadow := make([]int64, 4) // bank -> commit time of its last occupant
			var seq uint64
			now := int64(0)
			for i := 0; i < 300; i++ {
				seq++
				now += int64(r.Intn(40))
				v, enterAt, _ := e.Assign(true, false, false, seq, now)
				b := e.Bank(v)
				if enterAt < now {
					t.Fatalf("epoch %d entered at %d before its opening op at %d", v, enterAt, now)
				}
				if enterAt < shadow[b] {
					t.Fatalf("epoch %d violated bank %d exclusivity: enterAt=%d, bank busy until %d",
						v, b, enterAt, shadow[b])
				}
				ct := enterAt + int64(1+r.Intn(150))
				e.Committed(v, seq, ct)
				shadow[b] = ct
			}
		})
	}
}

// TestModNNeverSteals: the default policy always places on the home bank, so
// it charges no migration traffic — the property that keeps the golden
// fixture byte-identical under the Fabric refactor.
func TestModNNeverSteals(t *testing.T) {
	cfg := config.Default()
	cfg.EpochMaxInsts = 1
	fab := analyticFab(4, 4)
	e := NewEpochs(&cfg, ModN{}, fab, nil)
	r := xrand.New(3)
	var seq uint64
	now := int64(0)
	for i := 0; i < 200; i++ {
		seq++
		now += int64(r.Intn(20))
		v, enterAt, _ := e.Assign(true, false, false, seq, now)
		if got := e.Bank(v); got != e.Physical(v) {
			t.Fatalf("epoch %d placed on %d, home is %d", v, got, e.Physical(v))
		}
		e.Committed(v, seq, enterAt+int64(1+r.Intn(100)))
	}
	if e.Steals != 0 {
		t.Fatalf("mod-N stole %d times", e.Steals)
	}
	if tr := fab.Traffic(); tr.MigrateFlits != 0 || tr.Hops != 0 {
		t.Fatalf("mod-N charged migration traffic: %+v", tr)
	}
}

// TestStealChargesMigration: a stolen epoch pays the home->host state
// transfer on the fabric, and the hop accounting conserves flits x distance.
func TestStealChargesMigration(t *testing.T) {
	cfg := config.Default()
	cfg.NumEpochs = 2
	cfg.EpochMaxInsts = 1
	fab := analyticFab(2, 1)
	e := NewEpochs(&cfg, &Steal{Fab: fab}, fab, nil)
	// Epoch 0 on home bank 0, busy until 1000.
	v0, _, _ := e.Assign(true, false, false, 1, 0)
	e.Committed(v0, 1, 1000)
	// Epoch 1 on home bank 1, commits quickly.
	v1, _, _ := e.Assign(true, false, false, 2, 5)
	e.Committed(v1, 2, 10)
	// Epoch 2's home (bank 0) is busy until 1000, bank 1 freed at 10: steal.
	v2, enterAt, _ := e.Assign(true, false, false, 3, 20)
	if b := e.Bank(v2); b != 1 {
		t.Fatalf("epoch 2 placed on bank %d, want stolen bank 1", b)
	}
	if e.Steals != 1 {
		t.Fatalf("Steals = %d, want 1", e.Steals)
	}
	// Analytic migration of 8 flits over 1 hop at cost 1: 20 + 1 + 7 = 28.
	if enterAt != 28 {
		t.Fatalf("stolen epoch entered at %d, want 28 (migration latency)", enterAt)
	}
	tr := fab.Traffic()
	if tr.MigrateFlits != EpochStateFlits || tr.Hops != EpochStateFlits*1 {
		t.Fatalf("migration traffic = %+v, want %d flits over 1 hop each", tr, EpochStateFlits)
	}
}

// TestLeastLoadedPlace pins the policy's selection order: earliest effective
// entry first, then fewest hops from the previous bank, then lowest index.
func TestLeastLoadedPlace(t *testing.T) {
	fab := analyticFab(4, 1)
	p := &LeastLoaded{Fab: fab}
	bankFree := []int64{100, 50, 50, 200}
	if got := p.Place(9, 0, 3, bankFree); got != 2 {
		t.Fatalf("locality tie-break: got bank %d, want 2 (nearer prev=3)", got)
	}
	if got := p.Place(9, 0, -1, bankFree); got != 1 {
		t.Fatalf("index tie-break without prev: got bank %d, want 1", got)
	}
	// All banks free by t: every effective entry is t, prev wins on locality.
	if got := p.Place(9, 300, 0, bankFree); got != 0 {
		t.Fatalf("all-free locality: got bank %d, want 0", got)
	}
	// No fabric: pure earliest-free with index tie-break.
	if got := (&LeastLoaded{}).Place(9, 0, 3, bankFree); got != 1 {
		t.Fatalf("no-fabric tie-break: got bank %d, want 1", got)
	}
}

// TestStealPlace pins the home-affinity rules: keep home when free, steal the
// nearest free bank otherwise, fall back to home when everything is busy.
func TestStealPlace(t *testing.T) {
	fab := analyticFab(4, 1)
	p := &Steal{Fab: fab}
	bankFree := []int64{100, 0, 0, 0}
	if got := p.Place(4, 10, 3, bankFree); got != 3 {
		t.Fatalf("busy home: got bank %d, want 3 (nearest free to prev)", got)
	}
	if got := p.Place(5, 10, 3, bankFree); got != 1 {
		t.Fatalf("free home: got bank %d, want home 1", got)
	}
	busy := []int64{100, 100, 100, 100}
	if got := p.Place(4, 10, 3, busy); got != 0 {
		t.Fatalf("all busy: got bank %d, want home 0", got)
	}
	if got := (&Steal{}).Place(4, 10, 3, bankFree); got != 1 {
		t.Fatalf("no-fabric steal: got bank %d, want lowest free 1", got)
	}
}

// TestPlacerFor maps every config value to its policy.
func TestPlacerFor(t *testing.T) {
	cfg := config.Default()
	fab := analyticFab(4, 4)
	for _, tt := range []struct {
		pol  config.PlacePolicy
		want string
	}{
		{config.PlaceModN, "modn"},
		{config.PlaceLeastLoaded, "leastloaded"},
		{config.PlaceSteal, "steal"},
	} {
		cfg.Place = tt.pol
		if got := PlacerFor(&cfg, fab).Name(); got != tt.want {
			t.Errorf("PlacerFor(%v) = %q, want %q", tt.pol, got, tt.want)
		}
	}
}

// TestBankLookupOutsideWindowPanics: the guard ring turns a stale placement
// lookup into a loud failure instead of a silent mod-N alias.
func TestBankLookupOutsideWindowPanics(t *testing.T) {
	e := newEpochs(t)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Bank of an unplaced epoch did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "placement window") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	e.Bank(0)
}

// TestHomeBanks pins the static fallback map.
func TestHomeBanks(t *testing.T) {
	m := HomeBanks(4)
	for v := int64(0); v < 12; v++ {
		if got := m.Bank(v); got != int(v%4) {
			t.Fatalf("HomeBanks(4).Bank(%d) = %d", v, got)
		}
	}
}
