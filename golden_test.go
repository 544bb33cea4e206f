package repro

// The golden-output test pins the simulator's observable behaviour: every
// field of cpu.Result (counters, histograms, activity statistics) and the
// sweep cache identity of a spread of (scheme, benchmark, seed) points must
// stay bit-identical across refactors of the hot path. The fixture was
// generated before the allocation-free overhaul of the per-instruction loop
// and proves the overhaul changed performance, not results.
//
// Regenerate (only when a change is *meant* to alter results, alongside a
// sweep cacheVersion bump):
//
//	go test -run TestGoldenOutputs -update-golden

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/simrun"
	"repro/internal/sweep"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current simulator")

// goldenResult is the serialised form of one simulation outcome. Floats
// survive a JSON round trip bit-exactly (encoding/json emits the shortest
// representation that round-trips), so equality below is exact.
type goldenResult struct {
	Bench     string            `json:"bench"`
	Seed      uint64            `json:"seed"`
	Config    string            `json:"config"`
	SweepKey  string            `json:"sweep_key"`
	Committed uint64            `json:"committed"`
	Cycles    int64             `json:"cycles"`
	IPC       float64           `json:"ipc"`
	Counters  map[string]uint64 `json:"counters"`
	LoadDist  goldenHist        `json:"load_dist"`
	StoreDist goldenHist        `json:"store_dist"`
	LLIdle    float64           `json:"ll_idle_frac"`
	AvgEpochs float64           `json:"avg_epochs"`
}

type goldenHist struct {
	Counts   []uint64 `json:"counts"`
	Total    uint64   `json:"total"`
	Overflow uint64   `json:"overflow"`
}

// goldenPoints spans every scheme/model/disambiguation path the pipeline
// model can take, at the smoke budget.
func goldenPoints() []sweep.Job {
	mk := func(bench string, seed uint64, mut func(*config.Config)) sweep.Job {
		cfg := config.Default()
		cfg.MaxInsts = 20_000
		cfg.WarmupInsts = 100_000
		if mut != nil {
			mut(&cfg)
		}
		prof, err := workload.ByName(bench)
		if err != nil {
			panic(err)
		}
		return sweep.Job{Config: cfg, Bench: prof, Seed: seed}
	}
	return []sweep.Job{
		mk("swim", 1, nil),   // FMC-Hash+SQM, FP streaming
		mk("swim", 2, nil),   // seed sensitivity
		mk("gcc", 1, nil),    // FMC-Hash+SQM, INT control-heavy
		mk("mcf", 1, nil),    // pointer chasing, deep misses
		mk("equake", 1, nil), // FP with store-address chasing (RSAC outlier)
		mk("gcc", 1, func(c *config.Config) { c.SQM = false }),
		mk("gcc", 1, func(c *config.Config) { c.ERT = config.ERTLine }),
		mk("swim", 1, func(c *config.Config) { c.Disamb = config.DisambRSAC }),
		mk("swim", 1, func(c *config.Config) { c.Disamb = config.DisambRLAC }),
		mk("swim", 1, func(c *config.Config) { c.Disamb = config.DisambRSACLAC }),
		mk("gcc", 1, func(c *config.Config) { c.LSQ = config.LSQCentral }),
		mk("swim", 1, func(c *config.Config) { c.LSQ = config.LSQSVW }), // FMC + SVW
		mk("gcc", 1, func(c *config.Config) {
			c.Model = config.ModelOoO
			c.LSQ = config.LSQConventional
		}),
		mk("swim", 1, func(c *config.Config) {
			c.Model = config.ModelOoO
			c.LSQ = config.LSQSVW
		}),
		// SVW with the no-unresolved-store filter: the only consumer of
		// StoreIndex.Unresolved. equake's late-resolving store addresses
		// make the filter's input vary load to load.
		mk("equake", 1, func(c *config.Config) {
			c.LSQ = config.LSQSVW
			c.SVW = config.SVWCheckStores
		}),
		mk("equake", 1, func(c *config.Config) {
			c.Model = config.ModelOoO
			c.LSQ = config.LSQSVW
			c.SVW = config.SVWCheckStores
		}),
		mk("equake", 1, func(c *config.Config) { // one store dispatched per cycle
			c.LSQ = config.LSQSVW
			c.SVW = config.SVWCheckStores
			c.FetchWidth = 1
		}),
	}
}

func runGoldenPoint(t *testing.T, j sweep.Job) goldenResult {
	t.Helper()
	// Every golden point runs under the differential oracle: the pinned
	// results must also be memory-ordering correct, or the fixture would
	// lock a latent bug in.
	out, err := simrun.Point{Config: j.Config, Bench: j.Bench.Name, Seed: j.Seed, Oracle: true}.Run(nil)
	if err != nil {
		t.Fatalf("%s/%s seed %d: %v", j.Config.Name(), j.Bench.Name, j.Seed, err)
	}
	if err := out.Oracle.Err(); err != nil {
		t.Errorf("%s/%s seed %d: %v", j.Config.Name(), j.Bench.Name, j.Seed, err)
	}
	res := out.Result
	return goldenResult{
		Bench:     j.Bench.Name,
		Seed:      j.Seed,
		Config:    res.Config,
		SweepKey:  j.Key(),
		Committed: res.Committed,
		Cycles:    res.Cycles,
		IPC:       res.IPC,
		Counters:  res.Counters.Snapshot(),
		LoadDist:  goldenHist{Counts: res.LoadDist.Counts, Total: res.LoadDist.Total, Overflow: res.LoadDist.Overflow},
		StoreDist: goldenHist{Counts: res.StoreDist.Counts, Total: res.StoreDist.Total, Overflow: res.StoreDist.Overflow},
		LLIdle:    res.LLIdleFrac,
		AvgEpochs: res.AvgEpochs,
	}
}

func TestGoldenOutputs(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	var got []goldenResult
	for _, j := range goldenPoints() {
		got = append(got, runGoldenPoint(t, j))
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden results to %s", len(got), path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with -update-golden): %v", err)
	}
	var want []goldenResult
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden fixture has %d results, current points produce %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("point %d (%s/%s seed %d) diverged from golden fixture:\n got: %+v\nwant: %+v",
				i, got[i].Config, got[i].Bench, got[i].Seed, got[i], want[i])
		}
	}
}
