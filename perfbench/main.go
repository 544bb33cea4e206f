// Command perfbench is the repository benchmark: it runs one of its named
// workloads against the simulator's public API for a fixed time, checks
// every output, and prints every metric by name with its unit. The last
// line of its standard output is a JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 a separate, traced run reports the
// per-layer ones. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload detailed-fp --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// minPasses is the fewest timed passes a measurement takes, however long
// they last.
const minPasses = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// benchRun is one benchmark run: a workload at a seed, with the failures and
// attempts it has counted so far.
type benchRun struct {
	sc        scenario
	e         *env
	ref       *pass // the warm-up pass every later pass must reproduce
	attempted int
	failures  []string
}

// record counts a pass's jobs and failures, and checks that every job
// reproduced the warm-up pass's results digest.
func (b *benchRun) record(p *pass) {
	b.attempted += len(p.jobs)
	b.failures = append(b.failures, p.failures...)
	if b.ref == nil || p == b.ref {
		return
	}
	if len(p.digests) != len(b.ref.digests) {
		b.failures = append(b.failures, "pass ran a different job list")
		return
	}
	for i, d := range p.digests {
		if d != b.ref.digests[i] {
			b.failures = append(b.failures, p.jobs[i].name()+": results digest differs between passes")
		}
	}
}

// measure runs timed passes until window has elapsed, and at least
// minPasses of them. The window includes the collections between passes.
func (b *benchRun) measure(window time.Duration) []*pass {
	var out []*pass
	start := time.Now()
	for len(out) < minPasses || time.Since(start) < window {
		if b.e.tr != nil {
			b.e.tr.pass++
		}
		// Every pass starts from a collected heap, so its GC cycles fall at
		// the same points and do not carry over from the previous pass.
		runtime.GC()
		g := readGoCounters()
		p := b.sc.run(b.e)
		p.rt = readGoCounters().sub(g)
		b.record(p)
		out = append(out, p)
	}
	return out
}

// artifact is the full record of a run, written to the results directory.
type artifact struct {
	Workload    string           `json:"workload"`
	Seed        uint64           `json:"seed"`
	Seconds     int              `json:"seconds"`
	Trace       bool             `json:"trace"`
	Fingerprint fingerprint      `json:"fingerprint"`
	Result      result           `json:"result"`
	Failures    []string         `json:"failures,omitempty"`
	Passes      []passSummary    `json:"passes"`
	SpanStats   []spanStat       `json:"span_stats,omitempty"`
	Spans       []span           `json:"spans,omitempty"`
	PackageNS   map[string]int64 `json:"package_cpu_ns,omitempty"`
}

// passSummary is one pass's timing in the artifact.
type passSummary struct {
	Traced bool    `json:"traced"`
	Wall   float64 `json:"wall_s"`
	Setup  float64 `json:"setup_s"`
	Run    float64 `json:"run_s"`
	Jobs   int     `json:"jobs"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(scenarioNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the results digests are pinned for the default")
	secs := fs.Int("seconds", 10, "how long the timed passes run")
	traced := fs.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for temporary files and run artifacts")
	writeRef := fs.String("write-reference", "", "run every workload once at the default seed and write the digests to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	debug.SetGCPercent(gcPercent)
	if *writeRef != "" {
		return writeReference(*writeRef, *dir)
	}
	sc, ok := scenarios[*name]
	if !ok || *secs < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(scenarioNames(), ", "))
		return 2
	}
	workdir := filepath.Join(*dir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workdir)

	b := &benchRun{sc: sc, e: &env{seed: *seed, workdir: workdir, workers: min(2, runtime.NumCPU())}}
	fp := hostFingerprint()
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %ds, trace %d\n", *name, *seed, *secs, *traced)
	fmt.Fprintf(stdout, "  host: %s\n", fp)

	// An untimed warm-up pass lets lazy set-up and the heap settle, and is
	// the reference every timed pass must reproduce.
	b.ref = b.sc.run(b.e)
	b.record(b.ref)
	if *seed == defaultSeed {
		b.failures = append(b.failures, checkReference(*name, b.ref)...)
	}

	window := time.Duration(*secs) * time.Second
	art := artifact{Workload: *name, Seed: *seed, Seconds: *secs, Trace: *traced == 1, Fingerprint: fp}
	var m *metricSet
	var last *pass
	if *traced == 0 {
		timed := b.measure(window)
		rss := peakRSSMiB()
		last = timed[len(timed)-1]
		m = endToEnd(timed, rss)
		art.Passes = summaries(timed, false)
	} else {
		m, last = b.tracedRun(window, &art, stdout)
	}
	n, fails := sc.certify(b.e, last)
	b.attempted += n
	b.failures = append(b.failures, fails...)

	failedFrac := min(float64(len(b.failures))/float64(max(b.attempted, 1)), 1)
	if *traced == 1 {
		m.set("check.failed_frac", failedFrac)
	}
	if miss := m.missing(); len(miss) > 0 {
		b.failures = append(b.failures, "metrics not measured: "+strings.Join(miss, ", "))
	}
	// A failed check outside any job (say, a resolution error) still
	// counts as one failed attempt.
	attempted := max(b.attempted, len(b.failures), 1)
	res := result{
		Correct:   len(b.failures) == 0,
		Attempted: attempted,
		Failed:    len(b.failures),
		Metrics:   m.values,
	}
	printMetrics(stdout, m)
	if *traced == 1 {
		printModel(stdout, m)
	}
	fmt.Fprintf(stdout, "checks: %d jobs attempted, %d failed (failed_frac %s)\n", res.Attempted, res.Failed, formatValue(failedFrac))
	for i, f := range b.failures {
		if i == 10 {
			fmt.Fprintf(stdout, "  ... and %d more\n", len(b.failures)-10)
			break
		}
		fmt.Fprintf(stdout, "  FAIL %s\n", f)
	}
	art.Result, art.Failures = res, b.failures
	if path, err := writeArtifact(*dir, &art); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: artifact: %v\n", err)
	} else {
		fmt.Fprintf(stdout, "artifact: %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// tracedRun measures per-layer metrics: half the window untraced, half
// with spans and CPU profiling on, then the layer probes. The difference
// between the two halves' median pass times is the tracing overhead.
func (b *benchRun) tracedRun(window time.Duration, art *artifact, stdout io.Writer) (*metricSet, *pass) {
	m := newMetricSet(perLayerSpecs)
	plain := b.measure(window / 2)
	passLayerMetrics(m, plain)

	b.e.tr = newTracer()
	var prof bytes.Buffer
	profiling := pprof.StartCPUProfile(&prof) == nil
	traced := b.measure(window / 2)
	if profiling {
		pprof.StopCPUProfile()
	}
	spans := b.e.tr.spans
	b.e.tr = nil

	last := traced[len(traced)-1]
	countMetrics(m, last)
	phaseMetrics(m, spans)
	pkgs, err := foldProfile(prof.Bytes())
	if err != nil {
		b.failures = append(b.failures, "cpu profile: "+err.Error())
	}
	fold := byLayer(pkgs)
	selfFracMetrics(m, fold)
	wallOf := func(p *pass) float64 { return p.wall.Seconds() }
	untracedWall := medianOver(plain, wallOf)
	overhead := (medianOver(traced, wallOf) - untracedWall) / untracedWall
	m.set("tracing.overhead_frac", overhead)
	b.failures = append(b.failures, probe(b.e, last, m)...)

	stats := spanStats(spans)
	art.Passes = append(summaries(plain, false), summaries(traced, true)...)
	art.SpanStats, art.Spans, art.PackageNS = stats, spans, pkgs
	printTrace(stdout, stats, pkgs, overhead, untracedWall)
	return m, last
}

func summaries(passes []*pass, traced bool) []passSummary {
	out := make([]passSummary, len(passes))
	for i, p := range passes {
		out[i] = passSummary{Traced: traced, Wall: p.wall.Seconds(), Setup: p.setup.Seconds(), Run: p.run.Seconds(), Jobs: len(p.jobs)}
	}
	return out
}

func scenarioNames() []string {
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics prints every metric of the set by name, with its unit.
func printMetrics(w io.Writer, m *metricSet) {
	for _, s := range m.specs {
		v, ok := m.values[s.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-32s %14s %s\n", s.name, formatValue(v.Value), v.Unit)
	}
}

// printTrace prints the traced run's self-time table by layer, the
// packages inside "other", the phase spans and the tracing overhead.
func printTrace(w io.Writer, stats []spanStat, pkgs map[string]int64, overhead, untracedWall float64) {
	fold := byLayer(pkgs)
	var total int64
	for _, v := range fold {
		total += v
	}
	fmt.Fprintf(w, "self time by layer (flat CPU samples of the traced passes, %.2f s):\n", float64(total)/1e9)
	type row struct {
		layer string
		ns    int64
	}
	rows := make([]row, 0, len(layers))
	for _, l := range layers {
		rows = append(rows, row{l, fold[l]})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].ns > rows[j].ns })
	var sum float64
	for _, r := range rows {
		frac := 0.0
		if total > 0 {
			frac = float64(r.ns) / float64(total)
		}
		sum += frac
		fmt.Fprintf(w, "  %-10s %6.2f%%  %8.3f s\n", r.layer, 100*frac, float64(r.ns)/1e9)
	}
	fmt.Fprintf(w, "  %-10s %6.2f%%\n", "sum", 100*sum)
	var other []string
	for pkg := range pkgs {
		if layerOf(pkg) == "other" {
			other = append(other, pkg)
		}
	}
	sort.Slice(other, func(i, j int) bool { return pkgs[other[i]] > pkgs[other[j]] })
	fmt.Fprint(w, "  other, largest packages:")
	for i, pkg := range other {
		if i == 6 {
			break
		}
		fmt.Fprintf(w, " %s %.1f%%", pkg, 100*float64(pkgs[pkg])/float64(max(total, 1)))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "spans of the traced passes (total and self time):")
	for _, s := range stats {
		fmt.Fprintf(w, "  %-28s %6d  total %9.4f s  self %9.4f s\n", s.Name, s.Count, s.Total, s.Self)
	}
	fmt.Fprintf(w, "tracing overhead: %+.2f%% of the untraced median pass (%.4f s)\n", 100*overhead, untracedWall)
}

// printModel sets the model's own outputs beside the paper's figures.
func printModel(w io.Writer, m *metricSet) {
	v := func(name string) float64 { return m.values[name].Value }
	fmt.Fprintln(w, "model outputs beside the paper (synthetic workloads; the model is not validated against hardware):")
	if s := v("model.speedup_vs_ooo64"); s > 0 {
		fmt.Fprintf(w, "  speed-up over OoO-64 %.3fx (paper: FP ~2.1x, INT ~1.2x)\n", s)
	}
	if pd := v("model.bank_power_down_frac"); pd > 0 {
		fmt.Fprintf(w, "  LL-LSQ bank power-down %.1f%%, LL-LSQ idle %.1f%% (paper: 33-50%% power-down)\n", 100*pd, 100*v("model.ll_idle_frac"))
	}
	fmt.Fprintf(w, "  mean IPC %.3f, loads address-ready within 30 cycles %.1f%%\n", v("model.mean_ipc"), 100*v("model.load_locality_30"))
}

func writeArtifact(dir string, a *artifact) (string, error) {
	out := filepath.Join(dir, "results")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	t := 0
	if a.Trace {
		t = 1
	}
	path := filepath.Join(out, fmt.Sprintf("%s-s%d-trace%d.json", a.Workload, a.Seed, t))
	b, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
