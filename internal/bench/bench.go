// Package bench is the performance-regression harness of the repository:
// it runs a fixed matrix of (scheme × suite × budget) simulation points,
// measures simulator throughput (wall time, simulated instructions per
// second), allocation behaviour (allocations and bytes per simulated
// instruction) and the headline model metrics (IPC, Figure 1 locality
// fractions), and emits a versioned BENCH_<timestamp>.json artifact that
// cmd/elsqbench diffs against a committed baseline.
//
// Two classes of quantity live in one artifact and are treated differently
// by regression comparison:
//
//   - Deterministic quantities — the model metrics and the results digest —
//     must match the baseline exactly on the same GOARCH. Any drift means
//     the simulation changed, not the machine.
//   - Machine-dependent quantities — wall time, instructions/sec — carry a
//     tolerance band and are only enforced when the caller asks (the same
//     machine ran both artifacts, e.g. a before/after check on one host).
//     Allocations per instruction sit in between: they are a property of
//     the code, not the host, but minor runtime-version variation gets a
//     small band.
package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/simrun"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Budget names an instruction budget.
type Budget struct {
	// Name labels the budget in artifacts ("smoke", "deep").
	Name string
	// Measure and Warmup are the timed and warm-up instruction counts.
	Measure, Warmup uint64
}

// SmokeBudget is the quick CI budget; DeepBudget matches config.Default().
var (
	SmokeBudget = Budget{Name: "smoke", Measure: config.SmokeMeasureInsts, Warmup: config.SmokeWarmupInsts}
	DeepBudget  = Budget{Name: "deep", Measure: 200_000, Warmup: 2_000_000}
)

// Point is one measurement of the matrix: a scheme configuration run over
// every benchmark of a suite at a budget.
type Point struct {
	// Name is the artifact key, "<scheme>/<suite>/<budget>".
	Name string
	// Scheme labels the configuration (config.Config.Name()).
	Scheme string
	// Suite is the benchmark suite the point runs.
	Suite workload.Suite
	// Budget is the instruction budget.
	Budget Budget
	// Config is the full configuration (budget already applied).
	Config config.Config
	// TraceDir, when set, drives every benchmark of the point from the
	// recorded trace at trace.BenchPath(TraceDir, bench, 1) instead of the
	// live generator. Replay is bit-identical to live generation, so the
	// deterministic quantities (results digest, IPC, locality) must match a
	// live baseline exactly — only throughput and allocation behaviour
	// change. cmd/elsqtrace record -suites writes a compatible directory.
	TraceDir string
}

// scheme is a matrix row: a label plus the configuration it denotes.
type scheme struct {
	label string
	cfg   config.Config
}

func schemes() []scheme {
	central := config.Default()
	central.LSQ = config.LSQCentral
	svw := config.Default()
	svw.LSQ = config.LSQSVW
	// The contended-fabric row tracks the occupancy model's cost relative
	// to the analytic rows above. It is a newer matrix point: absent from
	// older baselines (Compare iterates the baseline's points, so adding
	// it cannot fail an existing gate) and picked up on the next baseline
	// regeneration. A variant row "<parent>-<suffix>" must change results
	// relative to its parent row, or it measures nothing the parent does
	// not (TestVariantRowsDiffer).
	contended := config.Default()
	contended.NoC = config.NoCContended
	// Classifier rows track the predictive HL/LL split policies
	// (internal/predict) against the reactive default; like the fabric row
	// they are new matrix points absent from older baselines.
	pred := config.Default()
	pred.Class = config.ClassCacheLevel
	delay := config.Default()
	delay.Class = config.ClassDelayTrack
	return []scheme{
		{"elsq", config.Default()},
		{"ooo64", config.OoO64()},
		{"central", central},
		{"svw", svw},
		{"elsq-noc", contended},
		{"elsq-pred", pred},
		{"elsq-delay", delay},
	}
}

func suiteLabel(s workload.Suite) string {
	if s == workload.SuiteInt {
		return "int"
	}
	return "fp"
}

// Matrix expands the fixed (scheme × suite × budget) measurement matrix.
// smokeOnly restricts it to the smoke budget (the per-PR CI matrix); the
// full matrix adds the deep budget for the two headline schemes.
func Matrix(smokeOnly bool) []Point {
	var out []Point
	suites := []workload.Suite{workload.SuiteInt, workload.SuiteFP}
	for _, sc := range schemes() {
		for _, su := range suites {
			out = append(out, newPoint(sc, su, SmokeBudget))
		}
	}
	if !smokeOnly {
		for _, sc := range schemes()[:2] { // elsq + ooo64
			for _, su := range suites {
				out = append(out, newPoint(sc, su, DeepBudget))
			}
		}
	}
	return out
}

func newPoint(sc scheme, su workload.Suite, b Budget) Point {
	return Point{
		Name:   fmt.Sprintf("%s/%s/%s", sc.label, suiteLabel(su), b.Name),
		Scheme: sc.label,
		Suite:  su,
		Budget: b,
		Config: sc.cfg.WithBudget(b.Measure, b.Warmup),
	}
}

// PointResult is the measured outcome of one point.
type PointResult struct {
	// Name, Scheme, Suite and Budget identify the point.
	Name   string `json:"name"`
	Scheme string `json:"scheme"`
	Suite  string `json:"suite"`
	Budget string `json:"budget"`
	// Benchmarks is the number of workloads in the suite.
	Benchmarks int `json:"benchmarks"`
	// Insts is the simulator work per repetition: (warmup + measured) per
	// benchmark, summed over the suite. Throughput counts the whole
	// budget because the warm-up phase is simulator work too (see the
	// budget-semantics note in internal/config).
	Insts uint64 `json:"insts"`
	// Reps is the number of measurement repetitions.
	Reps int `json:"reps"`
	// WallNS holds the wall time of every repetition, in order.
	WallNS []int64 `json:"wall_ns"`
	// InstsPerSec is the best-repetition throughput; the median is the
	// stable figure on noisy hosts.
	InstsPerSec       float64 `json:"insts_per_sec"`
	InstsPerSecMedian float64 `json:"insts_per_sec_median"`
	// AllocsPerInst and BytesPerInst are the heap allocation rates of the
	// best repetition (runtime.MemStats deltas over Insts).
	AllocsPerInst float64 `json:"allocs_per_inst"`
	BytesPerInst  float64 `json:"bytes_per_inst"`
	// MeanIPC is the suite-mean IPC — a headline deterministic metric.
	MeanIPC float64 `json:"mean_ipc"`
	// LoadLocality30 and StoreLocality30 are the suite-mean fractions of
	// loads/stores whose address was ready within 30 cycles of dispatch
	// (the Figure 1 statistic).
	LoadLocality30  float64 `json:"load_locality_30"`
	StoreLocality30 float64 `json:"store_locality_30"`
	// ResultsDigest is a hex digest over every simulation Result of the
	// point (benchmark order, counters sorted by name). Identical inputs
	// must produce identical digests on a given GOARCH; a mismatch against
	// the baseline means simulation results drifted.
	ResultsDigest string `json:"results_digest"`
	// EnergyPJPerInst is the suite total energy (internal/energy, the
	// config's energy.table) per committed instruction; BankPowerDownFrac
	// is the suite-mean powered-down fraction of the FMC LL-LSQ banks (the
	// paper's Figure 11 claim, 0 for non-FMC schemes); EnergyDigest folds
	// every benchmark's energy report into one hex digest. All three are
	// deterministic; they post-date older baselines (omitempty), and
	// Compare checks the digest only when the baseline carries one.
	EnergyPJPerInst   float64 `json:"energy_pj_per_inst,omitempty"`
	BankPowerDownFrac float64 `json:"bank_power_down_frac,omitempty"`
	EnergyDigest      string  `json:"energy_digest,omitempty"`
}

// Run measures one point: reps repetitions over the whole suite, each
// repetition simulating every benchmark once with live generation, plus the
// deterministic metrics from the final repetition's results.
func (p Point) Run(reps int) (PointResult, error) {
	if reps < 1 {
		reps = 1
	}
	profs := workload.SuiteOf(p.Suite)
	perRun := (p.Budget.Measure + p.Budget.Warmup) * uint64(len(profs))
	pr := PointResult{
		Name:       p.Name,
		Scheme:     p.Scheme,
		Suite:      suiteLabel(p.Suite),
		Budget:     p.Budget.Name,
		Benchmarks: len(profs),
		Insts:      perRun,
		Reps:       reps,
	}
	var results []*cpu.Result
	bestNS := int64(math.MaxInt64)
	var ms0, ms1 runtime.MemStats
	for rep := 0; rep < reps; rep++ {
		results = results[:0]
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for _, prof := range profs {
			out, err := p.point(prof).Run(nil)
			if err != nil {
				return pr, fmt.Errorf("bench %s/%s: %w", p.Name, prof.Name, err)
			}
			results = append(results, out.Result)
		}
		wall := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		pr.WallNS = append(pr.WallNS, wall)
		if wall < bestNS {
			bestNS = wall
			pr.AllocsPerInst = float64(ms1.Mallocs-ms0.Mallocs) / float64(perRun)
			pr.BytesPerInst = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(perRun)
		}
	}
	pr.InstsPerSec = float64(perRun) / (float64(bestNS) / 1e9)
	pr.InstsPerSecMedian = float64(perRun) / (float64(medianNS(pr.WallNS)) / 1e9)
	var ipc, lf, sf float64
	for _, r := range results {
		ipc += r.IPC
		lf += r.LoadDist.FracWithin(30)
		sf += r.StoreDist.FracWithin(30)
	}
	n := float64(len(results))
	pr.MeanIPC = ipc / n
	pr.LoadLocality30 = lf / n
	pr.StoreLocality30 = sf / n
	pr.ResultsDigest = digestResults(results)
	// Energy mapping runs after the timed repetitions so it never lands in
	// an allocation-measurement window (the counters themselves ride
	// pre-interned handles and cost the hot path nothing).
	eh := sha256.New()
	var totalPJ float64
	var committed uint64
	var pd float64
	for i, prof := range profs {
		cfg := p.config(prof)
		rep, err := energy.Compute(&cfg, results[i])
		if err != nil {
			return pr, fmt.Errorf("bench %s/%s: %w", p.Name, prof.Name, err)
		}
		totalPJ += rep.TotalPJ
		committed += results[i].Committed
		pd += rep.BankPowerDownFrac
		eh.Write([]byte(rep.Digest()))
	}
	if committed > 0 {
		pr.EnergyPJPerInst = totalPJ / float64(committed)
	}
	pr.BankPowerDownFrac = pd / n
	pr.EnergyDigest = hex.EncodeToString(eh.Sum(nil)[:16])
	return pr, nil
}

// config returns the point's configuration bound to one benchmark: the
// shared configuration, plus the benchmark's trace binding in TraceDir
// mode.
func (p Point) config(prof workload.Profile) config.Config {
	cfg := p.Config
	if p.TraceDir != "" {
		cfg.TracePath = trace.BenchPath(p.TraceDir, prof.Name, 1)
	}
	return cfg
}

// point maps one benchmark of the point onto the simrun API.
func (p Point) point(prof workload.Profile) simrun.Point {
	return simrun.Point{Config: p.config(prof), Bench: prof.Name, Seed: 1}
}

func medianNS(ns []int64) int64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

// digestResults folds every deterministic field of the results into one
// digest: committed counts, cycle counts, IPC bits, sorted counters, both
// histograms and the activity statistics.
func digestResults(results []*cpu.Result) string {
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
