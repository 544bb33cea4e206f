package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// suiteDigest folds a suite's results into the bench matrix's results
// digest (internal/bench): committed count, cycles, IPC bits, sorted
// counters, both latency histograms, LL idle fraction and mean epochs.
func suiteDigest(results []*cpu.Result) string {
	h := sha256.New()
	w := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range results {
		h.Write([]byte(r.Bench))
		h.Write([]byte{0})
		h.Write([]byte(r.Config))
		h.Write([]byte{0})
		w(r.Committed)
		w(uint64(r.Cycles))
		w(math.Float64bits(r.IPC))
		snap := r.Counters.Snapshot()
		names := make([]string, 0, len(snap))
		for k := range snap {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			h.Write([]byte(k))
			h.Write([]byte{0})
			w(snap[k])
		}
		w(r.LoadDist.Total)
		w(r.LoadDist.Overflow)
		for _, c := range r.LoadDist.Counts {
			w(c)
		}
		w(r.StoreDist.Total)
		w(r.StoreDist.Overflow)
		for _, c := range r.StoreDist.Counts {
			w(c)
		}
		w(math.Float64bits(r.LLIdleFrac))
		w(math.Float64bits(r.AvgEpochs))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestBaselineDigests runs the benchmark's own scalar path — warm images
// from ckpt.Build, every point resumed through simrun — at the smoke budget
// and seed 1, and requires the elsq and ooo64 INT and FP digests the CI
// gate pins in bench/baseline.json. It proves the benchmark drives the
// same simulator the gate does.
func TestBaselineDigests(t *testing.T) {
	base, err := bench.Load("../bench/baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, p := range base.Points {
		want[p.Name] = p.ResultsDigest
	}
	e := &env{seed: 1, workdir: t.TempDir(), workers: 1}
	for _, sc := range []scheme{{"elsq", config.Default()}, {"ooo64", config.OoO64()}} {
		for _, su := range []struct {
			label string
			suite workload.Suite
		}{{"int", workload.SuiteInt}, {"fp", workload.SuiteFP}} {
			s := &scalarScenario{suite: su.suite, schemes: []scheme{sc}}
			p := runScalar(e, false, func() ([]job, error) {
				return s.jobs(1, config.SmokeMeasureInsts, config.SmokeWarmupInsts)
			})
			if len(p.failures) > 0 {
				t.Fatalf("%s/%s: %v", sc.label, su.label, p.failures)
			}
			name := sc.label + "/" + su.label + "/smoke"
			if got := suiteDigest(p.results); got != want[name] {
				t.Errorf("%s: digest %s, bench/baseline.json pins %s", name, got, want[name])
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: every
// listed workload exists, and the metric names, units and directions agree.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := scenarios[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the program does not run", w.Name)
		}
	}
	check := func(kind string, listed []spec, specs []metricSpec) {
		if len(listed) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(specs))
		}
		for i := range min(len(listed), len(specs)) {
			l, s := listed[i], specs[i]
			if l.Name != s.name || l.Unit != s.unit || l.Better != s.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, program %s/%s/%s", kind, i, l.Name, l.Unit, l.Better, s.name, s.unit, s.better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndSpecs)
	check("per_layer", doc.PerLayer, perLayerSpecs)
}

// TestLayerOf pins the package-to-layer mapping the self-time table uses.
func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/mem.(*Cache).Access":                    "mem",
		"repro/internal/sweep.(*Runner).RunContext.func1":       "sweep",
		"repro/internal/config.(*Config).Validate":              "other",
		"runtime.mallocgc":                                      "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":          "runtime",
		"slices.SortFunc[go.shape.[]*repro/internal/lsq.MemOp]": "other",
		"compress/flate.(*compressor).deflate":                  "other",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldProfile folds a real CPU profile: every sample lands in exactly
// one layer, and the busy loop below is charged to this package's layer.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	sink = x
	pkgs, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fold := byLayer(pkgs)
	var total int64
	for l, ns := range fold {
		if layerOf("repro/internal/"+l) != l && l != "runtime" && l != "other" {
			t.Errorf("unknown layer %q", l)
		}
		total += ns
	}
	if total == 0 || fold["other"] == 0 {
		t.Fatalf("fold %v: want samples, most in this package (layer other)", fold)
	}
}

var sink uint64

// TestSpanStats checks self time: a span's duration minus its children's.
func TestSpanStats(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "setup", Start: 0, End: 30},
		{ID: 2, Parent: 1, Name: "ckpt.Build", Start: 5, End: 25},
		{ID: 3, Parent: 0, Name: "run", Start: 30, End: 90},
	}
	got := map[string]spanStat{}
	for _, s := range spanStats(spans) {
		got[s.Name] = s
	}
	for name, self := range map[string]float64{"pass": 10e-9, "setup": 10e-9, "ckpt.Build": 20e-9, "run": 60e-9} {
		if d := got[name].Self - self; d > 1e-15 || d < -1e-15 {
			t.Errorf("%s self %g, want %g", name, got[name].Self, self)
		}
	}
}
