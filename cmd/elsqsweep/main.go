// Command elsqsweep runs an arbitrary configuration sweep: a cartesian grid
// of config-field axes × benchmarks × seeds, executed in parallel with
// result caching, emitted as JSON and CSV artifacts.
//
// Usage:
//
//	elsqsweep -axis l1.size=16K,32K,64K -suites fp -seeds 1..3 -out sweep.json
//	elsqsweep -axis ert=line,hash -axis sqm=true,false -benches gzip,mcf,swim \
//	          -insts 50000 -csv sweep.csv
//	elsqsweep -axis ssbf.bits=8,10,12 -base ooo -axis lsq=svw -suites int \
//	          -cachedir .sweepcache -out svw.json
//	elsqsweep -axis ert=line,hash -ckptdir .ckpt -sample-intervals 4 \
//	          -sample-bleed 50000 -suites fp -out sampled.json
//	elsqsweep -fields          # list sweepable config fields
//	elsqsweep -axis ert=line,hash -benches mcf -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Repeating a run with -cachedir (or re-running overlapping grids) serves
// completed simulations from the cache; the summary line reports the hit
// count.
//
// Warm-up checkpointing (on by default, -ckpt=false to disable): jobs whose
// warm-up identity matches — same cache geometry, warm-up budget, benchmark
// and seed, i.e. every config axis the paper sweeps — share one functional
// warm-up instead of paying one each, with bit-identical results. -ckptdir
// persists the snapshots so later runs (and cmd/elsqckpt pre-builds) skip
// even that single warm-up. -sample-intervals/-sample-bleed select
// SimPoint-style multi-interval measurement (see internal/config).
//
// Trace-driven sweeps: -axis trace=a.elt,b.elt sweeps over recorded .elt
// files directly (the named benchmarks/seeds must match each recording),
// while -tracedir binds every job to <dir>/<bench>-s<seed>.elt, the layout
// elsqtrace record -suites writes. Either way jobs are content-addressed by
// the trace digest, and replay is bit-identical to live generation.
//
// Remote execution: -remote http://host:7977 submits the expanded grid to
// an elsqserve coordinator instead of simulating locally. Trace artifacts
// the jobs demand are pushed to the coordinator's content-addressed store
// first, progress is streamed to stderr, and the assembled results — byte-
// identical to a local run of the same grid, in the same canonical order —
// feed the usual JSON/CSV artifact writers. The local cache and checkpoint
// flags are ignored; the service's stores take their place.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cliprof"
	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/sweep"
	"repro/internal/trace"
)

var prof = cliprof.Flags()

func main() {
	var axes axisFlags
	flag.Var(&axes, "axis", "swept config field, field=v1,v2,... (repeatable)")
	base := flag.String("base", "fmc", "base configuration: fmc (Table 1 default) | ooo (OoO-64 baseline)")
	suites := flag.String("suites", "", "comma-separated suites to run (int,fp)")
	benches := flag.String("benches", "", "comma-separated benchmark names (overrides -suites)")
	seeds := flag.String("seeds", "1", "workload seeds: range lo..hi or comma list")
	insts := flag.Uint64("insts", 100_000, "measured instructions per benchmark")
	warmup := flag.Uint64("warmup", 2_500_000, "functional warm-up instructions per benchmark")
	sampleIntervals := flag.Int("sample-intervals", 0, "split the measured instructions into this many SimPoint-style intervals (0/1 = contiguous)")
	sampleBleed := flag.Uint64("sample-bleed", 0, "functional fast-forward instructions between sample intervals")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	outPath := flag.String("out", "", "write the JSON artifact to this file (- for stdout)")
	csvPath := flag.String("csv", "", "write the CSV artifact to this file (- for stdout)")
	cacheDir := flag.String("cachedir", "", "persistent result-cache directory (empty = in-memory only)")
	traceDir := flag.String("tracedir", "", "drive every job from the recorded trace <tracedir>/<bench>-s<seed>.elt (see elsqtrace record -suites) instead of live generation")
	useCkpt := flag.Bool("ckpt", true, "share one warm-up checkpoint across configs with equal warm-up identity (bit-identical results, one warm-up per benchmark/seed instead of one per job)")
	ckptDir := flag.String("ckptdir", "", "persistent checkpoint-store directory (empty = in-memory only; implies -ckpt)")
	ckptMax := flag.String("ckpt-max-bytes", "2G", "checkpoint store size budget for -ckptdir (K/M/G suffixes; 0 = unbounded)")
	remote := flag.String("remote", "", "submit the sweep to the elsqserve coordinator at this URL instead of simulating locally")
	quiet := flag.Bool("q", false, "suppress per-job progress lines")
	fields := flag.Bool("fields", false, "list sweepable config fields and exit")
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatalf("%v", err)
	}
	defer prof.Stop()

	if *fields {
		for _, f := range config.Fields() {
			fmt.Printf("  %-20s %s\n", f.Name, f.Doc)
		}
		return
	}

	cfg := config.Default()
	if *base == "ooo" {
		cfg = config.OoO64()
	} else if *base != "fmc" {
		fatalf("unknown -base %q (want fmc | ooo)", *base)
	}
	cfg.MaxInsts = *insts
	cfg.WarmupInsts = *warmup
	cfg.SampleIntervals = *sampleIntervals
	cfg.SampleBleedInsts = *sampleBleed

	grid := sweep.Grid{Base: cfg, Axes: axes}
	var err error
	switch {
	case *benches != "":
		grid.Benches, err = sweep.NamedBenches(*benches)
	case *suites != "":
		grid.Benches, err = sweep.SuiteBenches(*suites)
	default:
		grid.Benches, err = sweep.SuiteBenches("int,fp")
	}
	if err != nil {
		fatalf("%v", err)
	}
	if grid.Seeds, err = sweep.ParseSeeds(*seeds); err != nil {
		fatalf("%v", err)
	}

	jobs, err := grid.Expand()
	if err != nil {
		fatalf("%v", err)
	}
	if *traceDir != "" {
		// Bind every job to its recording and content-address it before any
		// cache key is derived (a per-job trace file is orthogonal to the
		// config axes, so this happens after expansion).
		for i := range jobs {
			jobs[i].Config.TracePath = trace.BenchPath(*traceDir, jobs[i].Bench.Name, jobs[i].Seed)
			if err := trace.Resolve(&jobs[i].Config); err != nil {
				fatalf("%v", err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %d jobs (%d grid points x %d benchmarks x %d seeds)\n",
		len(jobs), len(jobs)/(len(grid.Benches)*len(grid.Seeds)), len(grid.Benches), len(grid.Seeds))

	var outcomes []sweep.Outcome
	var stats sweep.Stats
	start := time.Now()
	if *remote != "" {
		outcomes, stats, err = runRemote(*remote, jobs, *quiet)
		if err != nil {
			fatalf("fleet sweep failed: %v", err)
		}
	} else {
		runner := sweep.Runner{Workers: *workers}
		if *cacheDir != "" {
			if runner.Cache, err = sweep.NewDiskCache(*cacheDir); err != nil {
				fatalf("%v", err)
			}
		} else {
			runner.Cache = sweep.NewMemCache()
		}
		switch {
		case *ckptDir != "":
			budget, err := config.ParseSize(*ckptMax)
			if err != nil {
				fatalf("bad -ckpt-max-bytes: %v", err)
			}
			if runner.Checkpoints, err = ckpt.NewDiskStore(*ckptDir, int64(budget)); err != nil {
				fatalf("%v", err)
			}
		case *useCkpt:
			runner.Checkpoints = ckpt.NewMemStore()
		}
		if !*quiet {
			runner.OnProgress = func(p sweep.Progress) {
				fmt.Fprintln(os.Stderr, sweep.FormatProgress(p))
			}
		}
		if outcomes, stats, err = runner.Run(jobs); err != nil {
			fatalf("sweep failed: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %s in %v\n", stats, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "sweep: results digest %s\n", sweep.ResultsDigest(outcomes))

	if err := writeArtifact(*outPath, func(f *os.File) error {
		return sweep.WriteJSON(f, outcomes, stats)
	}); err != nil {
		fatalf("writing JSON: %v", err)
	}
	if err := writeArtifact(*csvPath, func(f *os.File) error {
		return sweep.WriteCSV(f, outcomes)
	}); err != nil {
		fatalf("writing CSV: %v", err)
	}
	if *outPath == "" && *csvPath == "" {
		// No artifact requested: print the JSON to stdout so the run is
		// never silently discarded.
		if err := sweep.WriteJSON(os.Stdout, outcomes, stats); err != nil {
			fatalf("writing JSON: %v", err)
		}
	}
}

// runRemote executes the expanded grid on an elsqserve fleet: trace
// artifacts are pushed to the coordinator's content-addressed store,
// progress is streamed to stderr, and the results come back in the same
// canonical order a local run emits. An interrupt cancels the remote sweep
// before exiting.
func runRemote(base string, jobs []sweep.Job, quiet bool) ([]sweep.Outcome, sweep.Stats, error) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	client := fleet.NewClient(base)

	// Push every distinct trace the jobs demand; the store is
	// content-addressed, so re-pushing a trace the service already holds is
	// an idempotent no-op.
	pushed := make(map[string]bool)
	for _, j := range jobs {
		d := j.Config.TraceDigest
		if d == "" || pushed[d] || j.Config.TracePath == "" {
			continue
		}
		pushed[d] = true
		b, err := os.ReadFile(j.Config.TracePath)
		if err != nil {
			return nil, sweep.Stats{}, fmt.Errorf("reading trace for upload: %w", err)
		}
		if err := client.BlobPut(ctx, fleet.SpaceTrace, d, b); err != nil {
			return nil, sweep.Stats{}, fmt.Errorf("uploading trace %s: %w", d, err)
		}
	}
	if len(pushed) > 0 {
		fmt.Fprintf(os.Stderr, "sweep: pushed %d trace artifacts to %s\n", len(pushed), base)
	}

	sub, err := client.Submit(ctx, jobs)
	if err != nil {
		return nil, sweep.Stats{}, err
	}
	fmt.Fprintf(os.Stderr, "sweep: submitted %d jobs to %s as %s (%d served from the result store)\n",
		sub.Total, base, sub.ID, sub.Done)

	var onChange func(fleet.SweepStatus)
	if !quiet {
		onChange = func(st fleet.SweepStatus) {
			fmt.Fprintf(os.Stderr, "sweep: fleet %d/%d done, %d failed\n", st.Done, st.Total, st.Failed)
		}
	}
	st, err := client.Wait(ctx, sub.ID, onChange)
	if err != nil {
		if ctx.Err() != nil {
			// Interrupted: release the fleet's workers before going away.
			client.Cancel(context.Background(), sub.ID)
		}
		return nil, sweep.Stats{}, err
	}
	if st.Failed > 0 {
		return nil, sweep.Stats{}, fmt.Errorf("%d jobs failed permanently: %v", st.Failed, st.Errors)
	}
	return client.Results(ctx, sub.ID)
}

// writeArtifact writes to path via emit ("" skips, "-" means stdout).
func writeArtifact(path string, emit func(*os.File) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// axisFlags collects repeated -axis flags.
type axisFlags []sweep.Axis

// String implements flag.Value.
func (a *axisFlags) String() string {
	return fmt.Sprintf("%d axes", len(*a))
}

// Set implements flag.Value.
func (a *axisFlags) Set(s string) error {
	axis, err := sweep.ParseAxis(s)
	if err != nil {
		return err
	}
	*a = append(*a, axis)
	return nil
}

func fatalf(format string, args ...any) {
	prof.Stop()
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
