package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/oracle"
	"repro/internal/simrun"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// job is one simulation a workload runs.
type job struct {
	// label names the job's configuration within the workload.
	label string
	cfg   config.Config
	prof  workload.Profile
	seed  uint64
}

func (j job) name() string { return j.label + "/" + j.prof.Name }

// insts is the job's simulator work as internal/bench counts it: warm-up
// plus measured instructions.
func (j job) insts() uint64 { return j.cfg.WarmupInsts + j.cfg.MaxInsts }

// env is what every pass of one benchmark run shares.
type env struct {
	seed    uint64
	workdir string // this process's directory for temporary files
	workers int    // sweep worker pool size
	tr      *tracer
}

// pass is one execution of a workload: set-up, every job, and the checks
// that need only this pass.
type pass struct {
	// wall covers set-up and the run calls; setup, resolve and run are its
	// parts: everything before the first run call, the configuration part
	// of the set-up, and the time inside run calls.
	wall, setup, resolve, run time.Duration
	jobs                      []job
	results                   []*cpu.Result
	energy                    []*energy.Report
	digests                   []string
	resumed                   int
	// rt is the Go runtime's allocation and GC work during the pass.
	rt goCounters
	// failures names each failed job or workload-level check.
	failures []string
	// swept marks a sweep-trace pass; only such a pass sets the checkpoint
	// store, the cached re-run's time and hit share, and the cold run's
	// checkpoint-resume share and block decodes.
	swept        bool
	store        ckpt.Store
	cached       time.Duration
	cacheHitFrac float64
	resumeFrac   float64
	decodes      uint64
}

func (p *pass) failf(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// add records job i's outcome.
func (p *pass) add(i int, out *simrun.Outcome, err error) {
	if err != nil {
		p.failf("%s: %v", p.jobs[i].name(), err)
		return
	}
	p.results[i], p.energy[i] = out.Result, out.Energy
	if out.Resumed {
		p.resumed++
	}
	if out.Oracle != nil {
		if err := out.Oracle.Err(); err != nil {
			p.failf("%s: oracle: %v", p.jobs[i].name(), err)
		}
	}
}

// check digests every result and checks its energy accounting identity.
func (p *pass) check() {
	p.digests = make([]string, len(p.jobs))
	for i, r := range p.results {
		if r == nil {
			continue
		}
		p.digests[i] = sweep.ResultDigest(r)
		if p.energy[i] == nil {
			p.failf("%s: no energy report", p.jobs[i].name())
		} else if err := p.energy[i].Check(); err != nil {
			p.failf("%s: energy: %v", p.jobs[i].name(), err)
		}
	}
}

func newPass(jobs []job) *pass {
	return &pass{
		jobs:    jobs,
		results: make([]*cpu.Result, len(jobs)),
		energy:  make([]*energy.Report, len(jobs)),
	}
}

// scenario is one benchmark workload.
type scenario interface {
	// run executes one pass.
	run(e *env) *pass
	// certify re-runs the pass's jobs with the oracle attached and returns
	// how many jobs it ran and one failure per job the oracle flags or
	// whose results digest moves.
	certify(e *env, p *pass) (int, []string)
}

var scenarios = map[string]scenario{
	"detailed-fp": &scalarScenario{
		suite: workload.SuiteFP,
		schemes: []scheme{
			{"elsq", config.Default()},
			{"ooo64", config.OoO64()},
			{"svw", svwConfig()},
		},
		measure: 200_000,
		warmup:  2_000_000,
	},
	"warm-int": &scalarScenario{
		suite:   workload.SuiteInt,
		schemes: []scheme{{"elsq", config.Default()}},
		measure: 5_000,
		warmup:  2_500_000,
	},
	"sweep-trace": &sweepScenario{
		benches: []string{"gcc", "mcf", "swim", "equake"},
		axes: []sweep.Axis{
			{Field: "class.policy", Values: []string{"reactive", "cachelevel", "delaytrack"}},
			{Field: "noc.model", Values: []string{"analytic", "contended"}},
			{Field: "place.policy", Values: []string{"modn", "leastloaded"}},
		},
		epochs:  4,
		measure: 20_000,
		warmup:  100_000,
	},
	"fuzz-oracle": &fuzzScenario{points: 240},
}

// svwConfig is the paper's machine with the Store Vulnerability Window LSQ,
// the one scheme that exercises the svw layer.
func svwConfig() config.Config {
	c := config.Default()
	c.LSQ = config.LSQSVW
	return c
}

// scheme is a labelled configuration.
type scheme struct {
	label string
	cfg   config.Config
}

// scalarScenario runs a suite under a few configurations, one point after
// another, each resumed from a warm image the set-up builds with
// ckpt.Build.
type scalarScenario struct {
	suite           workload.Suite
	schemes         []scheme
	measure, warmup uint64
}

// jobs resolves the scenario's configurations for a seed.
func (s *scalarScenario) jobs(seed uint64, measure, warmup uint64) ([]job, error) {
	var jobs []job
	for _, sc := range s.schemes {
		cfg := sc.cfg.WithBudget(measure, warmup)
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", sc.label, err)
		}
		for _, prof := range workload.SuiteOf(s.suite) {
			jobs = append(jobs, job{label: sc.label, cfg: cfg, prof: prof, seed: seed})
		}
	}
	return jobs, nil
}

func (s *scalarScenario) run(e *env) *pass {
	return runScalar(e, false, func() ([]job, error) { return s.jobs(e.seed, s.measure, s.warmup) })
}

// runScalar is one pass over the jobs resolve returns, one simrun call per
// job, with the oracle attached when withOracle is set. Each job resumes
// from a warm image built with ckpt.Build just before the first job that
// needs it and dropped after the last, so at most the images still to be
// used are held; those builds are set-up time.
func runScalar(e *env, withOracle bool, resolve func() ([]job, error)) *pass {
	root := e.tr.begin("pass", -1)
	defer e.tr.end(root)
	start := time.Now()
	sp := e.tr.begin("setup", -1)
	id := e.tr.begin("config.resolve", -1)
	jobs, err := resolve()
	e.tr.end(id)
	e.tr.end(sp)
	p := newPass(jobs)
	p.resolve = time.Since(start)
	p.setup = p.resolve
	if err != nil {
		p.failf("resolve: %v", err)
		return p
	}
	keys := make([]string, len(jobs))
	lastUse := map[string]int{}
	for i, j := range jobs {
		if j.cfg.WarmupInsts > 0 {
			keys[i] = ckpt.Key(&j.cfg, j.prof.Name, j.seed)
			lastUse[keys[i]] = i
		}
	}
	snaps := map[string]*ckpt.Snapshot{}
	for i, j := range jobs {
		key := keys[i]
		snap, built := snaps[key]
		if key != "" && !built {
			sp := e.tr.begin("setup", i)
			id := e.tr.begin("ckpt.Build", i)
			t := time.Now()
			snap, err = ckpt.Build(&j.cfg, j.prof, j.seed)
			p.setup += time.Since(t)
			e.tr.end(id)
			e.tr.end(sp)
			if err != nil {
				p.failf("%s: ckpt.Build: %v", j.name(), err)
				continue
			}
			snaps[key] = snap
		}
		if key != "" && lastUse[key] == i {
			delete(snaps, key)
		}
		sp := e.tr.begin("run", i)
		id := e.tr.begin("simrun.Point.Run", i)
		t := time.Now()
		out, err := simrun.Point{Config: j.cfg, Bench: j.prof.Name, Seed: j.seed, Snapshot: snap, Oracle: withOracle}.Run(nil)
		p.run += time.Since(t)
		e.tr.end(id)
		e.tr.end(sp)
		p.add(i, out, err)
	}
	p.wall = time.Since(start)

	sp = e.tr.begin("check", -1)
	p.check()
	e.tr.end(sp)
	return p
}

// certify re-runs every job with the oracle attached and its warm-up run
// functionally inside simrun, so a matching digest also certifies that the
// pass's checkpoint resumes were exact.
func (s *scalarScenario) certify(e *env, p *pass) (int, []string) {
	var fails []string
	for i, j := range p.jobs {
		out, err := simrun.Point{Config: j.cfg, Bench: j.prof.Name, Seed: j.seed, Oracle: true}.Run(nil)
		fails = append(fails, certifyOne(j, out, err, p.digests[i])...)
	}
	return len(p.jobs), fails
}

// certifyOne checks one oracle-attached re-run against the pass's digest.
func certifyOne(j job, out *simrun.Outcome, err error, want string) []string {
	switch {
	case err != nil:
		return []string{fmt.Sprintf("%s: certify: %v", j.name(), err)}
	case out.Oracle == nil:
		return []string{fmt.Sprintf("%s: certify: no oracle attached", j.name())}
	case out.Oracle.Err() != nil:
		return []string{fmt.Sprintf("%s: oracle: %v", j.name(), out.Oracle.Err())}
	case sweep.ResultDigest(out.Result) != want:
		return []string{fmt.Sprintf("%s: oracle-attached re-run moved the results digest", j.name())}
	}
	return nil
}

// sweepScenario runs a grid of timing-only axes over traces recorded in
// set-up, through sweep.Runner with a fresh on-disk checkpoint store and
// result cache, batching on.
type sweepScenario struct {
	benches         []string
	axes            []sweep.Axis
	epochs          int
	measure, warmup uint64
}

// traceSlack is how many instructions a trace records beyond the budget,
// covering the pipeline's fetch-ahead past the last measured commit.
const traceSlack = 65_536

func (s *sweepScenario) base() config.Config {
	cfg := config.Default().WithBudget(s.measure, s.warmup)
	cfg.NumEpochs = s.epochs
	return cfg
}

// recordTrace records the committed stream of (prof, seed) for n
// instructions to path.
func recordTrace(path string, prof workload.Profile, seed, n uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rec, err := trace.NewRecorder(f, prof.New(seed))
	if err == nil {
		err = rec.Record(n)
		if cerr := rec.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// openVerified opens the trace at path and checks every block digest.
func openVerified(path string) (*trace.Trace, error) {
	t, err := trace.Open(path)
	if err != nil {
		return nil, err
	}
	return t, t.Verify()
}

func (s *sweepScenario) run(e *env) *pass {
	root := e.tr.begin("pass", -1)
	defer e.tr.end(root)
	start := time.Now()
	sp := e.tr.begin("setup", -1)
	p := newPass(nil)
	dir := filepath.Join(e.workdir, "sweep-trace")
	traces, ckpts, results := filepath.Join(dir, "traces"), filepath.Join(dir, "ckpt"), filepath.Join(dir, "results")
	if err := os.RemoveAll(dir); err != nil {
		p.failf("clean work dir: %v", err)
	}
	if err := os.MkdirAll(traces, 0o755); err != nil {
		p.failf("work dir: %v", err)
		e.tr.end(sp)
		return p
	}
	base := s.base()
	var profs []workload.Profile
	for _, b := range s.benches {
		prof, err := workload.ByName(b)
		if err != nil {
			p.failf("%v", err)
			e.tr.end(sp)
			return p
		}
		path := trace.BenchPath(traces, prof.Name, e.seed)
		id := e.tr.begin("trace.Recorder.Record", -1)
		err = recordTrace(path, prof, e.seed, base.WarmupInsts+base.MaxInsts+traceSlack)
		e.tr.end(id)
		if err == nil {
			id = e.tr.begin("trace.Open+Verify", -1)
			_, err = openVerified(path)
			e.tr.end(id)
		}
		if err != nil {
			p.failf("%s: trace: %v", prof.Name, err)
			e.tr.end(sp)
			return p
		}
		profs = append(profs, prof)
	}

	t := time.Now()
	id := e.tr.begin("config.resolve", -1)
	var sjobs []sweep.Job
	for _, prof := range profs {
		cfg := base
		cfg.TracePath = trace.BenchPath(traces, prof.Name, e.seed)
		g := sweep.Grid{Base: cfg, Axes: s.axes, Benches: []workload.Profile{prof}, Seeds: []uint64{e.seed}}
		js, err := g.Expand()
		if err != nil {
			p.failf("%s: grid: %v", prof.Name, err)
			e.tr.end(id)
			e.tr.end(sp)
			return p
		}
		sjobs = append(sjobs, js...)
	}
	e.tr.end(id)
	p.resolve = time.Since(t)
	p.jobs = make([]job, len(sjobs))
	for i, j := range sjobs {
		p.jobs[i] = job{label: axisLabel(j.Axes), cfg: j.Config, prof: j.Bench, seed: j.Seed}
	}
	p.results = make([]*cpu.Result, len(sjobs))
	p.energy = make([]*energy.Report, len(sjobs))

	store, err := ckpt.NewDiskStore(ckpts, 0)
	if err != nil {
		p.failf("checkpoint store: %v", err)
		e.tr.end(sp)
		return p
	}
	p.store = store
	built := map[string]bool{}
	for i, j := range p.jobs {
		key := ckpt.Key(&j.cfg, j.prof.Name, j.seed)
		if built[key] {
			continue
		}
		id := e.tr.begin("ckpt.Build", i)
		snap, err := ckpt.Build(&j.cfg, j.prof, j.seed)
		e.tr.end(id)
		if err != nil {
			p.failf("%s: ckpt.Build: %v", j.name(), err)
			continue
		}
		built[key] = true
		id = e.tr.begin("ckpt.DiskStore.Put", i)
		store.Put(snap)
		e.tr.end(id)
		if !store.Has(key) {
			p.failf("%s: checkpoint store write was lost", j.name())
		}
	}
	cache, err := sweep.NewDiskCache(results)
	if err != nil {
		p.failf("result cache: %v", err)
		e.tr.end(sp)
		return p
	}
	e.tr.end(sp)
	p.setup = time.Since(start)

	sp = e.tr.begin("run", -1)
	runner := &sweep.Runner{Workers: e.workers, Cache: cache, Checkpoints: store}
	id = e.tr.begin("sweep.Runner.Run", -1)
	t = time.Now()
	outs, st, err := runner.Run(sjobs)
	p.run = time.Since(t)
	e.tr.end(id)
	e.tr.end(sp)
	p.wall = time.Since(start)

	sp = e.tr.begin("check", -1)
	defer e.tr.end(sp)
	if err != nil {
		p.failf("sweep: %v", err)
	}
	for i, o := range outs {
		if o.Result == nil {
			p.failf("%s: no result", p.jobs[i].name())
			continue
		}
		p.results[i] = o.Result
		// sweep.Runner keeps results only; price them as simrun does.
		id := e.tr.begin("energy.Compute", i)
		rep, err := energy.Compute(&p.jobs[i].cfg, o.Result)
		e.tr.end(id)
		if err != nil {
			p.failf("%s: energy: %v", p.jobs[i].name(), err)
			continue
		}
		p.energy[i] = rep
	}
	p.resumed = st.CheckpointResumes
	if st.Ran > 0 {
		p.resumeFrac = float64(st.CheckpointResumes) / float64(st.Ran)
	}
	if st.CheckpointsBuilt != 0 {
		p.failf("sweep rebuilt %d warm images the set-up had stored", st.CheckpointsBuilt)
	}
	for _, prof := range profs {
		if tr, err := trace.Cached(trace.BenchPath(traces, prof.Name, e.seed)); err == nil {
			p.decodes += tr.Decodes()
		}
	}
	p.check()
	p.swept = true

	// The same grid against the warm result cache must be all hits and
	// reproduce the cold run's digest.
	id = e.tr.begin("sweep.Runner.Run(cached)", -1)
	t = time.Now()
	outs2, st2, err := (&sweep.Runner{Workers: e.workers, Cache: cache, Checkpoints: store}).Run(sjobs)
	p.cached = time.Since(t)
	e.tr.end(id)
	if st2.Unique > 0 {
		p.cacheHitFrac = float64(st2.CacheHits) / float64(st2.Unique)
	}
	switch {
	case err != nil:
		p.failf("cached sweep: %v", err)
	case st2.Ran != 0:
		p.failf("cached sweep simulated %d jobs", st2.Ran)
	case sweep.ResultsDigest(outs2) != sweep.ResultsDigest(outs):
		p.failf("cached sweep digest differs from the cold run's")
	}
	s.checkRows(p)
	return p
}

// checkRows checks that every configuration of the grid produces its own
// digest and exercises the feature it names.
func (s *sweepScenario) checkRows(p *pass) {
	type row struct {
		digest            string
		steals, predicted uint64
		j                 job
	}
	rows := map[string]*row{}
	var order []string
	for i, j := range p.jobs {
		r, ok := rows[j.label]
		if !ok {
			r = &row{j: j}
			rows[j.label] = r
			order = append(order, j.label)
		}
		r.digest += p.digests[i]
		if res := p.results[i]; res != nil {
			r.steals += res.Counters.Get("place_steals")
			r.predicted += res.Counters.Get("pred_hit") + res.Counters.Get("pred_miss")
		}
	}
	seen := map[string]string{}
	for _, label := range order {
		r := rows[label]
		if other, ok := seen[r.digest]; ok {
			p.failf("configs %s and %s produce identical digests", other, label)
		}
		seen[r.digest] = label
		if r.j.cfg.Place != config.PlaceModN && r.steals == 0 {
			p.failf("%s: placement policy never moved an epoch off its home bank", label)
		}
		if r.j.cfg.Class != config.ClassReactive && r.predicted == 0 {
			p.failf("%s: classifier made no predictions", label)
		}
	}
}

// axisLabel renders grid axis values in a stable order.
func axisLabel(axes map[string]string) string {
	keys := make([]string, 0, len(axes))
	for k := range axes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + axes[k]
	}
	return strings.Join(parts, ",")
}

func (s *sweepScenario) certify(e *env, p *pass) (int, []string) {
	points := make([]simrun.Point, len(p.jobs))
	for i, j := range p.jobs {
		points[i] = simrun.Point{Config: j.cfg, Bench: j.prof.Name, Seed: j.seed, Ckpt: p.store, Oracle: true}
	}
	outs, err := simrun.RunBatch(nil, points)
	if err != nil {
		return len(points), []string{fmt.Sprintf("certify: %v", err)}
	}
	var fails []string
	for i, j := range p.jobs {
		fails = append(fails, certifyOne(j, outs[i], outs[i].Err, p.digests[i])...)
	}
	return len(points), fails
}

// fuzzScenario runs oracle.RandomPoint-derived points one after another,
// each with the oracle attached and resumed from a warm image the set-up
// builds (points without a warm-up start cold).
type fuzzScenario struct {
	points int
}

// fuzzSchemes are the (model, LSQ) pairs oracle.RandomPoint draws from;
// every one must appear among a pass's points.
var fuzzSchemes = []string{"fmc/elsq", "fmc/svw", "fmc/central", "ooo/conventional", "ooo/svw"}

func (s *fuzzScenario) jobs(seed uint64) ([]job, error) {
	jobs := make([]job, s.points)
	covered := map[string]bool{}
	disamb := false
	for i := range jobs {
		fp := oracle.RandomPoint(seed*1_000_003 + uint64(i))
		// A fixed budget schedule, the same for every seed, keeps the
		// simulated work of a pass independent of the seed; the seed
		// still draws every scheme, geometry and workload.
		fp.Config.MaxInsts = 500 + uint64(i)*7500/uint64(s.points)
		fp.Config.WarmupInsts = []uint64{0, 2_000, 20_000}[i%3]
		if err := fp.Config.Validate(); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		prof, err := workload.ByName(fp.Bench)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		jobs[i] = job{label: fmt.Sprintf("p%03d", i), cfg: fp.Config, prof: prof, seed: fp.Seed}
		model := "fmc"
		if fp.Config.Model == config.ModelOoO {
			model = "ooo"
		}
		covered[model+"/"+fp.Config.LSQ.String()] = true
		disamb = disamb || fp.Config.Disamb != config.DisambFull
	}
	for _, sc := range fuzzSchemes {
		if !covered[sc] {
			return nil, fmt.Errorf("no point runs scheme %s", sc)
		}
	}
	if !disamb {
		return nil, fmt.Errorf("no point runs a restricted disambiguation (rsac/rlac)")
	}
	return jobs, nil
}

func (s *fuzzScenario) run(e *env) *pass {
	return runScalar(e, true, func() ([]job, error) { return s.jobs(e.seed) })
}

// certify has nothing to add: every pass already runs each point under the
// oracle.
func (s *fuzzScenario) certify(e *env, p *pass) (int, []string) { return 0, nil }
