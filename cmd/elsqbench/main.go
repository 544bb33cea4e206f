// Command elsqbench runs the repository's performance-regression matrix
// (internal/bench): a fixed set of (scheme × suite × budget) simulation
// points measured for throughput, allocation rate and headline model
// metrics, written as a versioned BENCH_<timestamp>.json artifact.
//
// Typical uses:
//
//	elsqbench -smoke                                  # quick matrix, print + artifact
//	elsqbench -smoke -compare bench/baseline.json     # CI regression gate
//	elsqbench -smoke -write-baseline bench/baseline.json
//	elsqbench -compare old.json -enforce-throughput   # before/after on one host
//	elsqbench -smoke -resume-check                    # ckpt-resumed == full digests
//	elsqbench -ckpt-speedup                           # warm-up-sharing wall-clock win
//	elsqbench -smoke -batch 8                         # batched == scalar digests
//	elsqbench -smoke -energy                          # pJ/inst + bank power-down columns
//	elsqbench -smoke -cpuprofile cpu.pprof            # runtime/pprof profile of the run
//	elsqbench -smoke -memprofile mem.pprof            # allocation profile of the run
//
// Regression semantics (see internal/bench): results digests and headline
// metrics are deterministic and must match the baseline exactly on the
// same GOARCH; allocations/instruction get a small band; wall-clock
// throughput is only enforced with -enforce-throughput, because it is not
// comparable across hosts.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime/debug"

	"repro/internal/bench"
	"repro/internal/cliprof"
	"repro/internal/config"
)

var prof = cliprof.Flags()

func main() {
	smoke := flag.Bool("smoke", false, "run only the smoke-budget matrix (the per-PR CI gate)")
	reps := flag.Int("reps", 3, "measurement repetitions per point (throughput = best, stability = median)")
	out := flag.String("out", ".", "directory for the BENCH_<timestamp>.json artifact")
	noArtifact := flag.Bool("no-artifact", false, "skip writing the artifact")
	compare := flag.String("compare", "", "baseline artifact to diff against; exits 1 on regression")
	writeBaseline := flag.String("write-baseline", "", "also write the artifact to this path (e.g. bench/baseline.json)")
	pointFilter := flag.String("points", "", "regexp selecting matrix points by name")
	tolAllocs := flag.Float64("tolerance-allocs", bench.DefaultTolerance().Allocs, "accepted fractional allocs/inst increase")
	tolThroughput := flag.Float64("tolerance-throughput", bench.DefaultTolerance().Throughput, "accepted fractional median-throughput loss")
	enforceThroughput := flag.Bool("enforce-throughput", false, "fail on throughput loss beyond the band (same-host comparisons only)")
	gcPercent := flag.Int("gcpercent", 200, "GOGC while measuring (simulation churns short-lived structures; <=0 keeps the default)")
	resumeCheck := flag.Bool("resume-check", false, "run each point once full-warm-up and once checkpoint-resumed and fail on any results-digest mismatch (no throughput measurement)")
	traceDir := flag.String("tracedir", "", "drive every point from recorded traces <tracedir>/<bench>-s1.elt (see elsqtrace record -suites); deterministic metrics and digests match the live baseline exactly")
	sampleIntervals := flag.Int("sample-intervals", 0, "measure each point in this many SimPoint-style intervals (0/1 = contiguous; changes results digests, so compare only against a baseline measured the same way)")
	sampleBleed := flag.Uint64("sample-bleed", 0, "functional fast-forward instructions between sample intervals")
	ckptSpeedup := flag.Bool("ckpt-speedup", false, "measure a 3-config sweep sharing one warm-up checkpoint vs three full warm-ups and print the wall-clock ratio")
	speedupBench := flag.String("ckpt-speedup-bench", "swim", "benchmark for -ckpt-speedup")
	oracleCertify := flag.Bool("oracle", false, "certify each point against the differential correctness oracle (internal/oracle) instead of measuring; fails on any committed-load value mismatch")
	batchLanes := flag.Int("batch", 0, "run each point's benchmark as this many warm-up-sharing lanes on the batch engine and as sequential scalar runs, fail on any results-digest divergence, and print the aggregate speedup (no throughput measurement)")
	batchWarmup := flag.Uint64("batch-warmup", 0, "override WarmupInsts for -batch points (0 keeps the matrix budget); the shared-warm-up speedup scales with the warm:measure ratio, so headline numbers use the paper's 2.5M-instruction warm-up")
	energyCol := flag.Bool("energy", false, "print the energy columns (pJ/inst, FMC bank power-down fraction, energy digest) per point; the quantities are always measured and stored in the artifact")
	energyTable := flag.String("energy-table", "", "energy coefficient table for every point (empty = base; see internal/energy)")
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatalf("%v", err)
	}
	defer prof.Stop()

	if *gcPercent > 0 {
		debug.SetGCPercent(*gcPercent)
	}

	if *ckptSpeedup {
		runCkptSpeedup(*speedupBench)
		return
	}

	points := bench.Matrix(*smoke)
	for i := range points {
		points[i].Config.SampleIntervals = *sampleIntervals
		points[i].Config.SampleBleedInsts = *sampleBleed
		points[i].Config.EnergyTable = *energyTable
		points[i].TraceDir = *traceDir
	}
	if *pointFilter != "" {
		re, err := regexp.Compile(*pointFilter)
		if err != nil {
			fatalf("bad -points regexp: %v", err)
		}
		kept := points[:0]
		for _, p := range points {
			if re.MatchString(p.Name) {
				kept = append(kept, p)
			}
		}
		points = kept
	}
	if len(points) == 0 {
		fatalf("no matrix points selected")
	}

	if *resumeCheck {
		runResumeCheck(points)
		return
	}
	if *oracleCertify {
		runOracleCertify(points)
		return
	}
	if *batchLanes > 0 {
		if *batchWarmup > 0 {
			for i := range points {
				points[i].Config.WarmupInsts = *batchWarmup
			}
		}
		runBatchCheck(points, *batchLanes)
		return
	}

	results := make([]bench.PointResult, 0, len(points))
	for _, p := range points {
		pr, err := p.Run(*reps)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%-18s %8.2f M insts/s (median %.2f)  allocs/inst %.4f  IPC %.4f  digest %s\n",
			pr.Name, pr.InstsPerSec/1e6, pr.InstsPerSecMedian/1e6, pr.AllocsPerInst, pr.MeanIPC, pr.ResultsDigest)
		if *energyCol {
			fmt.Printf("%-18s %8.1f pJ/inst  bank power-down %5.1f%%  energy digest %s\n",
				"", pr.EnergyPJPerInst, pr.BankPowerDownFrac*100, pr.EnergyDigest)
		}
		results = append(results, pr)
	}
	art := bench.NewArtifact(results)

	if !*noArtifact {
		path, err := art.Write(*out)
		if err != nil {
			fatalf("write artifact: %v", err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if *writeBaseline != "" {
		if err := art.WriteFile(*writeBaseline); err != nil {
			fatalf("write baseline: %v", err)
		}
		fmt.Printf("wrote baseline %s\n", *writeBaseline)
	}

	if *compare != "" {
		baseline, err := bench.Load(*compare)
		if err != nil {
			fatalf("load baseline: %v", err)
		}
		fmt.Print(bench.DiffTable(baseline, art))
		tol := bench.Tolerance{
			Throughput:        *tolThroughput,
			EnforceThroughput: *enforceThroughput,
			Allocs:            *tolAllocs,
		}
		regs := bench.Compare(baseline, art, tol)
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "REGRESSION %s\n", r)
			}
			prof.Stop()
			os.Exit(1)
		}
		fmt.Println("no regressions against", *compare)
	}
}

// runOracleCertify certifies every selected point's committed-load values
// against the sequential reference model and fails on any mismatch.
func runOracleCertify(points []bench.Point) {
	failed := false
	for _, p := range points {
		rep, err := p.Certify()
		if err != nil {
			fatalf("%v", err)
		}
		status := "ok"
		if !rep.OK() {
			status = fmt.Sprintf("%d VIOLATION(S): %s", rep.Violations, rep.First)
			failed = true
		}
		fmt.Printf("%-18s %9d loads / %9d stores / %10d bytes certified  %s\n",
			rep.Name, rep.Loads, rep.Stores, rep.CheckedBytes, status)
	}
	if failed {
		fatalf("oracle certification failed")
	}
	fmt.Println("oracle: every committed load matches the sequential reference")
}

// runResumeCheck verifies the checkpoint determinism contract over the
// selected matrix points: resumed and full-warm-up digests must agree.
func runResumeCheck(points []bench.Point) {
	failed := false
	for _, p := range points {
		chk, err := p.VerifyResume()
		if err != nil {
			fatalf("%v", err)
		}
		status := "ok"
		if !chk.OK() {
			status = "MISMATCH"
			failed = true
		}
		fmt.Printf("%-18s full %s (%.0f ms)  resumed %s (%.0f ms)  %s\n",
			chk.Name, chk.FullDigest, float64(chk.FullNS)/1e6,
			chk.ResumedDigest, float64(chk.ResumedNS)/1e6, status)
	}
	if failed {
		fatalf("checkpoint-resumed results diverged from full-warm-up results")
	}
	fmt.Println("resume-check: all digests identical")
}

// runBatchCheck verifies the batch engine's determinism contract over the
// selected matrix points: K warm-up-compatible lanes (MispredictPenalty
// variants) run scalar and batched must produce identical digests with the
// oracle clean, and the batched pass should be faster in aggregate.
func runBatchCheck(points []bench.Point, lanes int) {
	failed := false
	for _, p := range points {
		chk, err := p.VerifyBatch(lanes)
		if err != nil {
			fatalf("%v", err)
		}
		status := "ok"
		switch {
		case chk.ScalarDigest != chk.BatchDigest:
			status = "MISMATCH"
			failed = true
		case !chk.Batched:
			status = "NOT BATCHED"
			failed = true
		case chk.OracleViolations > 0:
			status = fmt.Sprintf("%d ORACLE VIOLATION(S)", chk.OracleViolations)
			failed = true
		}
		fmt.Printf("%-18s %d lanes of %s: scalar %s (%.0f ms)  batch %s (%.0f ms, %.2fx)  %s\n",
			chk.Name, chk.Lanes, chk.Bench, chk.ScalarDigest, float64(chk.ScalarNS)/1e6,
			chk.BatchDigest, float64(chk.BatchNS)/1e6, chk.Speedup(), status)
	}
	if failed {
		fatalf("batched results diverged from scalar results")
	}
	fmt.Println("batch-check: all digests identical, oracle clean")
}

// runCkptSpeedup prints the headline warm-up-sharing numbers: a 3-config
// sweep (hash ERT, line ERT, halved migrate threshold — non-warm-up axes)
// at the smoke measurement budget under the full 2.5M-instruction warm-up.
func runCkptSpeedup(benchName string) {
	mk := func(mut func(*config.Config)) config.Config {
		cfg := config.Default().WithBudget(config.SmokeMeasureInsts, 2_500_000)
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	}
	res, err := bench.CheckpointSpeedup(benchName, 1, []config.Config{
		mk(nil),
		mk(func(c *config.Config) { c.ERT = config.ERTLine }),
		mk(func(c *config.Config) { c.MigrateThreshold = 24 }),
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("ckpt-speedup %s over %v (%d insts of full-warm-up work)\n", res.Bench, res.Configs, res.Insts)
	fmt.Printf("  full warm-up x3:        %8.1f ms\n", float64(res.FullNS)/1e6)
	fmt.Printf("  shared, built in-run:   %8.1f ms  (%.2fx)\n", float64(res.ColdNS)/1e6, res.ColdSpeedup())
	fmt.Printf("  shared, from store:     %8.1f ms  (%.2fx)\n", float64(res.WarmNS)/1e6, res.WarmSpeedup())
	if !res.Match {
		fatalf("checkpoint-shared results diverged from full-warm-up results")
	}
	fmt.Println("  results bit-identical across all three sweeps")
}

func fatalf(format string, args ...any) {
	prof.Stop()
	fmt.Fprintf(os.Stderr, "elsqbench: "+format+"\n", args...)
	os.Exit(1)
}
