// Tests for the batched execution contract: a point run as a lane of the
// batch engine must produce results bit-identical to the same point run
// scalar, whatever mix of schemes, budgets and sampling plans shares the
// group.
package simrun_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/simrun"
)

const (
	testWarmup  uint64 = 6000
	testMeasure uint64 = 2500
)

// laneAxes are config mutations on non-warm-up axes: any subset of lanes
// built from them shares a warm-up key and therefore a batch group.
var laneAxes = []struct {
	name string
	mut  func(*config.Config)
}{
	{"default", nil},
	{"nosqm", func(c *config.Config) { c.SQM = false }},
	{"line-ert", func(c *config.Config) { c.ERT = config.ERTLine }},
	{"rsac", func(c *config.Config) { c.Disamb = config.DisambRSAC }},
	{"rlac", func(c *config.Config) { c.Disamb = config.DisambRLAC }},
	{"central", func(c *config.Config) { c.LSQ = config.LSQCentral }},
	{"svw", func(c *config.Config) { c.LSQ = config.LSQSVW }},
	{"migrate24", func(c *config.Config) { c.MigrateThreshold = 24 }},
	{"cachelevel", func(c *config.Config) { c.Class = config.ClassCacheLevel }},
	{"delaytrack", func(c *config.Config) { c.Class = config.ClassDelayTrack }},
	{"epochs4", func(c *config.Config) { c.NumEpochs = 4 }},
	{"mem250", func(c *config.Config) { c.MemLatency = 250 }},
	{"mispredict", func(c *config.Config) { c.MispredictPenalty += 3 }},
	{"ooo64", func(c *config.Config) {
		c.Model = config.ModelOoO
		c.LSQ = config.LSQConventional
	}},
}

func lanePoint(bench string, seed uint64, mut func(*config.Config)) simrun.Point {
	cfg := config.Default().WithBudget(testMeasure, testWarmup)
	if mut != nil {
		mut(&cfg)
	}
	return simrun.Point{Config: cfg, Bench: bench, Seed: seed}
}

// scalarResult runs the point outside any batch.
func scalarResult(t *testing.T, p simrun.Point) *cpu.Result {
	t.Helper()
	out, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return out.Result
}

// assertSameResult compares every deterministic field of two results.
func assertSameResult(t *testing.T, label string, got, want *cpu.Result) {
	t.Helper()
	if got.Committed != want.Committed || got.Cycles != want.Cycles || got.IPC != want.IPC {
		t.Errorf("%s: committed/cycles/IPC %d/%d/%v, want %d/%d/%v",
			label, got.Committed, got.Cycles, got.IPC, want.Committed, want.Cycles, want.IPC)
	}
	if !reflect.DeepEqual(got.Counters.Snapshot(), want.Counters.Snapshot()) {
		t.Errorf("%s: counters diverged:\n got %v\nwant %v", label, got.Counters.Snapshot(), want.Counters.Snapshot())
	}
	if !reflect.DeepEqual(got.LoadDist, want.LoadDist) || !reflect.DeepEqual(got.StoreDist, want.StoreDist) {
		t.Errorf("%s: locality histograms diverged", label)
	}
	if got.LLIdleFrac != want.LLIdleFrac || got.AvgEpochs != want.AvgEpochs {
		t.Errorf("%s: LL activity diverged: %v/%v vs %v/%v",
			label, got.LLIdleFrac, got.AvgEpochs, want.LLIdleFrac, want.AvgEpochs)
	}
}

// TestBatchMatchesScalar is the bit-identity property test: random
// same-warm-up groups of lanes across schemes and both suites, each lane
// compared field-for-field against its own scalar run. One lane per group
// also carries the oracle, proving per-lane observers attach to the right
// lane inside the batch.
func TestBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	benches := []string{"gcc", "mcf", "swim", "equake"}
	for trial := 0; trial < 4; trial++ {
		bench := benches[trial%len(benches)]
		k := 3 + rng.Intn(3)
		points := make([]simrun.Point, k)
		names := make([]string, k)
		perm := rng.Perm(len(laneAxes))
		for i := 0; i < k; i++ {
			ax := laneAxes[perm[i]]
			points[i] = lanePoint(bench, 1, ax.mut)
			names[i] = ax.name
		}
		oracleLane := rng.Intn(k)
		points[oracleLane].Oracle = true

		want := make([]*cpu.Result, k)
		for i := range points {
			p := points[i]
			p.Oracle = false
			want[i] = scalarResult(t, p)
		}

		outs, err := simrun.RunBatch(nil, points)
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			label := bench + "/" + names[i]
			if out.Err != nil {
				t.Fatalf("%s: %v", label, out.Err)
			}
			if !out.Batched {
				t.Errorf("%s: lane of a %d-point group ran scalar", label, k)
			}
			assertSameResult(t, label, out.Result, want[i])
		}
		if ck := outs[oracleLane].Oracle; ck == nil {
			t.Errorf("%s: oracle lane has no checker", bench)
		} else if err := ck.Err(); err != nil {
			t.Errorf("%s: batched lane failed certification: %v", bench, err)
		}
	}
}

// TestBatchSingletonFallsBackToScalar pins the grouping rule: points that
// share nothing run scalar (Batched false) and still produce their scalar
// results through the same RunBatch call.
func TestBatchSingletonFallsBackToScalar(t *testing.T) {
	points := []simrun.Point{
		lanePoint("gcc", 1, nil),
		lanePoint("swim", 1, nil),
		lanePoint("gcc", 2, nil), // same bench, different seed: own group
	}
	want := make([]*cpu.Result, len(points))
	for i := range points {
		want[i] = scalarResult(t, points[i])
	}
	outs, err := simrun.RunBatch(nil, points)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if out.Batched {
			t.Errorf("point %d: singleton group reported as batched", i)
		}
		assertSameResult(t, points[i].Bench, out.Result, want[i])
	}
}

// TestBatchLaneRetirement exercises the engine's raggedness: lanes of one
// group with very different measurement budgets — and one lane on a
// SimPoint-style sampled plan with mid-run functional bleed — retire in
// different lockstep rounds, and every one must still match its scalar run.
func TestBatchLaneRetirement(t *testing.T) {
	mk := func(insts uint64, mut func(*config.Config)) simrun.Point {
		p := lanePoint("mcf", 1, mut)
		p.Config.MaxInsts = insts
		return p
	}
	points := []simrun.Point{
		mk(2000, nil),
		mk(9000, func(c *config.Config) { c.LSQ = config.LSQSVW }),
		mk(5500, func(c *config.Config) {
			c.SampleIntervals = 3
			c.SampleBleedInsts = 1200
		}),
		mk(2000, func(c *config.Config) { c.ERT = config.ERTLine }),
	}
	want := make([]*cpu.Result, len(points))
	for i := range points {
		want[i] = scalarResult(t, points[i])
	}
	outs, err := simrun.RunBatch(nil, points)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("lane %d: %v", i, out.Err)
		}
		if !out.Batched {
			t.Errorf("lane %d ran scalar", i)
		}
		assertSameResult(t, "lane", out.Result, want[i])
	}
}

// TestBatchSharesStoreCheckpoints pins the warm-up economics: a batched
// group builds its shared checkpoint exactly once (reported on one lane),
// stores it, and a second batch over the same group resumes without
// building.
func TestBatchSharesStoreCheckpoints(t *testing.T) {
	store := ckpt.NewMemStore()
	points := []simrun.Point{
		lanePoint("swim", 1, nil),
		lanePoint("swim", 1, func(c *config.Config) { c.LSQ = config.LSQSVW }),
		lanePoint("swim", 1, func(c *config.Config) { c.Disamb = config.DisambRSAC }),
	}
	for i := range points {
		points[i].Ckpt = store
	}
	outs, err := simrun.RunBatch(nil, points)
	if err != nil {
		t.Fatal(err)
	}
	built := 0
	for _, out := range outs {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if !out.Resumed {
			t.Error("batched lane with warm-up not reported as resumed")
		}
		if out.CkptBuilt {
			built++
		}
	}
	if built != 1 {
		t.Errorf("group reported %d checkpoint builds, want exactly 1", built)
	}
	if store.Len() != 1 {
		t.Errorf("store holds %d snapshots, want 1", store.Len())
	}

	again, err := simrun.RunBatch(nil, points)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range again {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if out.CkptBuilt {
			t.Error("second batch rebuilt a stored checkpoint")
		}
		if !out.Resumed {
			t.Error("second batch did not resume from the store")
		}
		assertSameResult(t, "restore", out.Result, outs[i].Result)
	}
}

// TestBatchArenaReuse runs heterogeneous lane groups back to back in one
// process, so later groups are built on slabs recycled from earlier ones —
// larger and smaller than they need — and checks every lane against a
// fresh scalar run. A slab handed out without being cleared would leak one
// group's calendars, rings, lines or store records into the next. The last
// group skips the warm-up, so its caches start from the recycled line
// slab rather than from a restored image.
func TestBatchArenaReuse(t *testing.T) {
	contended4 := func(c *config.Config) {
		c.NumEpochs = 4
		c.NoC = config.NoCContended
	}
	cold := func(c *config.Config) {
		contended4(c)
		c.WarmupInsts = 0
	}
	group := func(bench string, base func(*config.Config), k int) []simrun.Point {
		points := make([]simrun.Point, k)
		for i := range points {
			ax := laneAxes[i]
			points[i] = lanePoint(bench, 1, func(c *config.Config) {
				if base != nil {
					base(c)
				}
				if ax.mut != nil {
					ax.mut(c)
				}
				if i%2 == 1 {
					c.Place = config.PlaceLeastLoaded
				}
			})
		}
		return points
	}
	groups := [][]simrun.Point{
		group("gcc", contended4, 8),
		group("mcf", nil, 4),
		group("equake", cold, 8),
	}
	want := make([][]*cpu.Result, len(groups))
	for g, points := range groups {
		for _, p := range points {
			want[g] = append(want[g], scalarResult(t, p))
		}
	}
	// A collection between groups may empty the slab pool; keep it off so
	// every group after the first really runs on recycled slabs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for g, points := range groups {
		outs, err := simrun.RunBatch(nil, points)
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			label := fmt.Sprintf("group %d lane %d (%s)", g, i, laneAxes[i].name)
			if out.Err != nil {
				t.Fatalf("%s: %v", label, out.Err)
			}
			if !out.Batched {
				t.Errorf("%s ran scalar", label)
			}
			assertSameResult(t, label, out.Result, want[g][i])
		}
	}
}
