package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestMatrixShape(t *testing.T) {
	smoke := Matrix(true)
	full := Matrix(false)
	if len(smoke) != 14 {
		t.Fatalf("smoke matrix has %d points, want 14", len(smoke))
	}
	if len(full) != 18 {
		t.Fatalf("full matrix has %d points, want 18", len(full))
	}
	seen := map[string]bool{}
	for _, p := range full {
		if seen[p.Name] {
			t.Errorf("duplicate point %q", p.Name)
		}
		seen[p.Name] = true
		if err := p.Config.Validate(); err != nil {
			t.Errorf("%s: invalid config: %v", p.Name, err)
		}
		if p.Config.MaxInsts != p.Budget.Measure || p.Config.WarmupInsts != p.Budget.Warmup {
			t.Errorf("%s: budget not applied to config", p.Name)
		}
		if !strings.Contains(p.Name, p.Budget.Name) {
			t.Errorf("%s: name does not carry budget %q", p.Name, p.Budget.Name)
		}
	}
	for _, p := range smoke {
		if p.Budget.Name != SmokeBudget.Name {
			t.Errorf("smoke matrix contains %s", p.Name)
		}
	}
}

// tinyPoint is a fast measurement point for tests.
func tinyPoint() Point {
	cfg := config.Default().WithBudget(2_000, 10_000)
	return Point{
		Name:   "elsq/fp/tiny",
		Scheme: "elsq",
		Suite:  workload.SuiteFP,
		Budget: Budget{Name: "tiny", Measure: 2_000, Warmup: 10_000},
		Config: cfg,
	}
}

func TestPointRunDeterministicMetrics(t *testing.T) {
	a, err := tinyPoint().Run(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinyPoint().Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.ResultsDigest != b.ResultsDigest {
		t.Errorf("results digest differs across runs: %s vs %s", a.ResultsDigest, b.ResultsDigest)
	}
	if a.MeanIPC != b.MeanIPC || a.LoadLocality30 != b.LoadLocality30 || a.StoreLocality30 != b.StoreLocality30 {
		t.Errorf("deterministic metrics differ across runs: %+v vs %+v", a, b)
	}
	if a.InstsPerSec <= 0 || len(a.WallNS) != 1 || len(b.WallNS) != 2 {
		t.Errorf("throughput bookkeeping wrong: %+v / %+v", a, b)
	}
	if a.Benchmarks != len(workload.FPSuite()) {
		t.Errorf("point covered %d benchmarks, want the FP suite", a.Benchmarks)
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	pr, err := tinyPoint().Run(1)
	if err != nil {
		t.Fatal(err)
	}
	art := NewArtifact([]PointResult{pr})
	dir := t.TempDir()
	path, err := art.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(path), "BENCH_") || !strings.HasSuffix(path, ".json") {
		t.Errorf("artifact name %q does not follow BENCH_<timestamp>.json", path)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 1 || !reflect.DeepEqual(got.Points[0], pr) {
		t.Errorf("artifact round trip changed the point: %+v", got.Points[0])
	}
	if got.Schema != SchemaVersion {
		t.Errorf("schema %d after round trip", got.Schema)
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	art := NewArtifact(nil)
	art.Schema = SchemaVersion + 1
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("Load accepted a mismatched schema")
	}
}

func mkArtifact(p PointResult) *Artifact {
	a := NewArtifact([]PointResult{p})
	a.CreatedAt = time.Unix(0, 0).UTC()
	return a
}

func basePoint() PointResult {
	return PointResult{
		Name:              "elsq/fp/smoke",
		InstsPerSecMedian: 50e6,
		AllocsPerInst:     0.01,
		ResultsDigest:     "aaaa",
		MeanIPC:           2.5,
	}
}

func TestCompare(t *testing.T) {
	tol := DefaultTolerance()

	t.Run("clean", func(t *testing.T) {
		if regs := Compare(mkArtifact(basePoint()), mkArtifact(basePoint()), tol); len(regs) != 0 {
			t.Errorf("unexpected regressions: %v", regs)
		}
	})
	t.Run("metric drift", func(t *testing.T) {
		cur := basePoint()
		cur.ResultsDigest = "bbbb"
		regs := Compare(mkArtifact(basePoint()), mkArtifact(cur), tol)
		if len(regs) != 1 || regs[0].Kind != "metric-drift" {
			t.Errorf("want one metric-drift, got %v", regs)
		}
	})
	t.Run("arch mismatch fails loudly", func(t *testing.T) {
		cur := basePoint()
		cur.ResultsDigest = "bbbb"
		fresh := mkArtifact(cur)
		fresh.GOARCH = "arm64"
		regs := Compare(mkArtifact(basePoint()), fresh, tol)
		if len(regs) != 1 || regs[0].Kind != "arch-mismatch" {
			t.Errorf("want one arch-mismatch (digests not comparable), got %v", regs)
		}
	})
	t.Run("allocs regression", func(t *testing.T) {
		cur := basePoint()
		cur.AllocsPerInst = 0.5
		regs := Compare(mkArtifact(basePoint()), mkArtifact(cur), tol)
		if len(regs) != 1 || regs[0].Kind != "allocs" {
			t.Errorf("want one allocs regression, got %v", regs)
		}
	})
	t.Run("throughput only when enforced", func(t *testing.T) {
		cur := basePoint()
		cur.InstsPerSecMedian = 20e6
		if regs := Compare(mkArtifact(basePoint()), mkArtifact(cur), tol); len(regs) != 0 {
			t.Errorf("throughput enforced by default: %v", regs)
		}
		etol := tol
		etol.EnforceThroughput = true
		regs := Compare(mkArtifact(basePoint()), mkArtifact(cur), etol)
		if len(regs) != 1 || regs[0].Kind != "throughput" {
			t.Errorf("want one throughput regression, got %v", regs)
		}
	})
	t.Run("missing point", func(t *testing.T) {
		fresh := NewArtifact(nil)
		regs := Compare(mkArtifact(basePoint()), fresh, tol)
		if len(regs) != 1 || regs[0].Kind != "missing-point" {
			t.Errorf("want one missing-point, got %v", regs)
		}
	})
}

// TestCompareTolaranceBandFormatting pins the band rendering in regression
// messages: fractional percentages must survive (0.125 is a "12.5%" band,
// not a truncated "12%"), and round bands stay clean.
func TestCompareTolaranceBandFormatting(t *testing.T) {
	cur := basePoint()
	cur.InstsPerSecMedian = 20e6
	cur.AllocsPerInst = 0.5
	tol := Tolerance{Throughput: 0.125, EnforceThroughput: true, Allocs: 0.105}
	regs := Compare(mkArtifact(basePoint()), mkArtifact(cur), tol)
	if len(regs) != 2 {
		t.Fatalf("want allocs + throughput regressions, got %v", regs)
	}
	details := regs[0].Detail + "\n" + regs[1].Detail
	for _, want := range []string{"10.5%", "12.5%"} {
		if !strings.Contains(details, want) {
			t.Errorf("band %q missing from regression messages:\n%s", want, details)
		}
	}
	for _, stale := range []string{"(band 12%)", "than 10%"} {
		if strings.Contains(details, stale) {
			t.Errorf("truncated band %q still rendered:\n%s", stale, details)
		}
	}

	// Round bands render without spurious decimals.
	regs = Compare(mkArtifact(basePoint()), mkArtifact(cur),
		Tolerance{Throughput: 0.25, EnforceThroughput: true, Allocs: 0.10})
	details = regs[0].Detail + "\n" + regs[1].Detail
	for _, want := range []string{"10%", "25%"} {
		if !strings.Contains(details, want) {
			t.Errorf("band %q missing from regression messages:\n%s", want, details)
		}
	}

	// Sub-0.1% bands keep full precision instead of the three significant
	// digits %.3g used to clamp them to.
	if got, want := pct(0.000625), "0.0625%"; got != want {
		t.Errorf("pct(0.000625) = %q, want %q", got, want)
	}
	if got, want := pct(0.0012345), "0.12345%"; got != want {
		t.Errorf("pct(0.0012345) = %q, want %q", got, want)
	}
	if got, want := pct(0.25), "25%"; got != want {
		t.Errorf("pct(0.25) = %q, want %q", got, want)
	}
}

// TestPointRunFromTraces checks the trace-driven bench mode: a point run
// from a directory of recordings produces the exact results digest of the
// live-generator run — the deterministic class of the regression gate is
// preserved under replay.
func TestPointRunFromTraces(t *testing.T) {
	p := Point{
		Name:   "elsq/int/tiny",
		Scheme: "elsq",
		Suite:  workload.SuiteInt,
		Budget: Budget{Name: "tiny", Measure: 1_000, Warmup: 4_000},
		Config: config.Default().WithBudget(1_000, 4_000),
	}
	dir := t.TempDir()
	for _, prof := range workload.SuiteOf(p.Suite) {
		f, err := os.Create(trace.BenchPath(dir, prof.Name, 1))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := trace.NewRecorder(f, prof.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Record(p.Budget.Measure + p.Budget.Warmup); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	live, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	p.TraceDir = dir
	traced, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if traced.ResultsDigest != live.ResultsDigest {
		t.Errorf("trace-driven digest %s != live digest %s", traced.ResultsDigest, live.ResultsDigest)
	}
	if traced.MeanIPC != live.MeanIPC {
		t.Errorf("trace-driven IPC %v != live %v", traced.MeanIPC, live.MeanIPC)
	}

	// The resume gate must exercise the trace-backed checkpoint path too:
	// digests of the trace-driven full and resumed runs agree with each
	// other and with the live run.
	chk, err := p.VerifyResume()
	if err != nil {
		t.Fatal(err)
	}
	if !chk.OK() {
		t.Errorf("trace-driven resume digest %s != full digest %s", chk.ResumedDigest, chk.FullDigest)
	}
	if chk.FullDigest != live.ResultsDigest {
		t.Errorf("trace-driven resume-check digest %s != live digest %s", chk.FullDigest, live.ResultsDigest)
	}

	// A missing recording fails with the benchmark named, not a zero result.
	p.TraceDir = t.TempDir()
	if _, err := p.Run(1); err == nil {
		t.Error("point ran with an empty trace directory")
	}
}

// TestVerifyResume gates the checkpoint determinism promise at the bench
// layer: full-warm-up and checkpoint-resumed digests must agree.
func TestVerifyResume(t *testing.T) {
	p := newPoint(schemes()[0], workload.SuiteFP, Budget{Name: "tiny", Measure: 2_000, Warmup: 20_000})
	chk, err := p.VerifyResume()
	if err != nil {
		t.Fatal(err)
	}
	if !chk.OK() {
		t.Errorf("resumed digest %s != full digest %s", chk.ResumedDigest, chk.FullDigest)
	}
}

// TestCheckpointSpeedup checks the speedup harness end to end: all three
// sweeps must match bit-exactly, and the store-resumed sweep must win once
// warm-up dominates the budget. The thresholds are deliberately loose —
// the real numbers (6x+ warm at the 2.5M-warm-up smoke point) belong to
// elsqbench -ckpt-speedup, not a CI assertion on a noisy host.
func TestCheckpointSpeedup(t *testing.T) {
	mk := func(mut func(*config.Config)) config.Config {
		cfg := config.Default().WithBudget(2_000, 400_000)
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	}
	res, err := CheckpointSpeedup("swim", 1, []config.Config{
		mk(nil),
		mk(func(c *config.Config) { c.ERT = config.ERTLine }),
		mk(func(c *config.Config) { c.MigrateThreshold = 24 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Fatal("checkpoint-shared sweep results diverged from full-warm-up sweep")
	}
	if res.WarmSpeedup() < 1.3 {
		t.Errorf("warm-store speedup %.2fx, want >= 1.3x at a warm-up-dominated budget", res.WarmSpeedup())
	}
}

// Every point of the smoke matrix must pass differential-oracle
// certification: the committed-load values of all four schemes over both
// suites match the sequential reference byte-for-byte. The budget is
// reduced — the test pins the structural wiring; the full smoke-budget
// certification runs in CI via `elsqbench -smoke -oracle`.
func TestSmokeMatrixCertifiedByOracle(t *testing.T) {
	for _, p := range Matrix(true) {
		p.Config = p.Config.WithBudget(2000, 5000)
		rep, err := p.Certify()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !rep.OK() {
			t.Errorf("%s: %d violation(s): %s", p.Name, rep.Violations, rep.First)
		}
		if rep.Loads == 0 || rep.CheckedBytes == 0 {
			t.Errorf("%s: oracle certified nothing (loads %d, bytes %d)", p.Name, rep.Loads, rep.CheckedBytes)
		}
	}
}

// TestVariantRowsDiffer runs every variant row ("<parent>-<suffix>") and its
// parent row at a tiny budget and requires different results digests on
// both suites: a variant whose configuration never changes the simulation
// is a dead row that only duplicates its parent's measurement.
func TestVariantRowsDiffer(t *testing.T) {
	tiny := Budget{Name: "tiny", Measure: 2_000, Warmup: 10_000}
	rows := map[string]scheme{}
	for _, sc := range schemes() {
		rows[sc.label] = sc
	}
	digests := map[string]string{}
	digest := func(sc scheme, su workload.Suite) string {
		key := sc.label + "/" + suiteLabel(su)
		if d, ok := digests[key]; ok {
			return d
		}
		pr, err := newPoint(sc, su, tiny).Run(1)
		if err != nil {
			t.Fatal(err)
		}
		digests[key] = pr.ResultsDigest
		return pr.ResultsDigest
	}
	variants := 0
	for _, sc := range schemes() {
		i := strings.LastIndex(sc.label, "-")
		if i < 0 {
			continue
		}
		parent, ok := rows[sc.label[:i]]
		if !ok {
			continue
		}
		variants++
		for _, su := range []workload.Suite{workload.SuiteInt, workload.SuiteFP} {
			if digest(sc, su) == digest(parent, su) {
				t.Errorf("%s/%s: results digest equals its parent %s's", sc.label, suiteLabel(su), parent.label)
			}
		}
	}
	if variants == 0 {
		t.Fatal("no variant rows found")
	}
}
