package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ckpt"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/simrun"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// probeJobs is how many of the workload's jobs the layer probes use.
const probeJobs = 4

// probeInsts is how many instructions each generation, cache and trace
// probe drives per job.
const probeInsts = 200_000

// probeOps is how many committed memory operations the oracle probe
// replays at least.
const probeOps = 200_000

// opLog is a commit observer that copies the committed memory operations
// of a run (the pipeline recycles the records it passes), up to a limit.
type opLog struct {
	ops   []lsq.MemOp
	limit int
}

func (l *opLog) LoadCommitted(op *lsq.MemOp)  { l.keep(op) }
func (l *opLog) StoreCommitted(op *lsq.MemOp) { l.keep(op) }

func (l *opLog) keep(op *lsq.MemOp) {
	if len(l.ops) < l.limit {
		l.ops = append(l.ops, *op)
	}
}

// probeSet picks the first jobs of distinct benchmarks, as live-generation
// jobs (trace bindings cleared) so every workload probes the same way.
func probeSet(jobs []job) []job {
	var out []job
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.prof.Name] {
			continue
		}
		seen[j.prof.Name] = true
		j.cfg.TracePath, j.cfg.TraceDigest = "", ""
		out = append(out, j)
		if len(out) == probeJobs {
			break
		}
	}
	return out
}

// probe times the public entry points of each layer on the workload's own
// inputs: its first few jobs of distinct benchmarks, and the results of
// its last pass. It returns one failure per probe whose output is wrong.
func probe(e *env, last *pass, m *metricSet) []string {
	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	jobs := probeSet(last.jobs)
	dir := filepath.Join(e.workdir, "probe")
	traces, ckpts, results := filepath.Join(dir, "traces"), filepath.Join(dir, "ckpt"), filepath.Join(dir, "results")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return []string{fmt.Sprintf("probe dir: %v", err)}
	}
	defer os.RemoveAll(dir)

	// Warm images, and the on-disk store that keeps them.
	var build, put, get time.Duration
	var snaps []*ckpt.Snapshot
	for _, j := range jobs {
		t := time.Now()
		snap, err := ckpt.Build(&j.cfg, j.prof, j.seed)
		build += time.Since(t)
		if err != nil {
			failf("%s: ckpt.Build: %v", j.name(), err)
			continue
		}
		snaps = append(snaps, snap)
	}
	m.set("ckpt.build_s", build.Seconds())
	store, err := ckpt.NewDiskStore(ckpts, 0)
	if err != nil {
		return append(fails, fmt.Sprintf("probe store: %v", err))
	}
	for _, s := range snaps {
		t := time.Now()
		store.Put(s)
		put += time.Since(t)
	}
	reopened, err := ckpt.NewDiskStore(ckpts, 0)
	if err != nil {
		return append(fails, fmt.Sprintf("probe store: %v", err))
	}
	for _, s := range snaps {
		t := time.Now()
		got, ok := reopened.Get(s.Key)
		get += time.Since(t)
		if !ok || got.Key != s.Key || got.Bench != s.Bench || got.Seed != s.Seed {
			failf("%s: checkpoint store lost the warm image", s.Bench)
		}
	}
	bytes, err := store.TotalBytes()
	if err != nil {
		failf("probe store: %v", err)
	}
	n := float64(max(len(snaps), 1))
	m.set("ckpt.store_put_ms", 1e3*put.Seconds()/n)
	m.set("ckpt.store_get_ms", 1e3*get.Seconds()/n)
	m.set("ckpt.snapshot_bytes", float64(bytes)/n)

	// Instruction generation in warm-up count mode and one at a time, and
	// the cache hierarchy replaying the warm-up's address stream.
	var warm, next, access time.Duration
	var addrs []uint64
	var levels [3]uint64
	for _, j := range jobs {
		g := j.prof.New(j.seed)
		t := time.Now()
		g.Warmup(probeInsts, func(uint64) {})
		warm += time.Since(t)

		g = j.prof.New(j.seed)
		var in isa.Inst
		t = time.Now()
		for k := 0; k < probeInsts; k++ {
			g.Next(&in)
		}
		next += time.Since(t)

		addrs = addrs[:0]
		j.prof.New(j.seed).Warmup(probeInsts, func(a uint64) { addrs = append(addrs, a) })
		h := mem.NewHierarchy(&j.cfg)
		t = time.Now()
		for _, a := range addrs {
			lvl, _ := h.Access(a)
			levels[lvl]++
		}
		access += time.Since(t)
	}
	insts := float64(probeInsts * len(jobs))
	m.set("workload.warmup_ns_per_inst", float64(warm.Nanoseconds())/insts)
	m.set("workload.next_ns_per_inst", float64(next.Nanoseconds())/insts)
	accesses := levels[mem.LevelL1] + levels[mem.LevelL2] + levels[mem.LevelMem]
	m.set("mem.access_ns", float64(access.Nanoseconds())/float64(max(accesses, 1)))
	m.set("mem.l1_hit_frac", float64(levels[mem.LevelL1])/float64(max(accesses, 1)))
	m.set("mem.l2_hit_frac", float64(levels[mem.LevelL2])/float64(max(accesses-levels[mem.LevelL1], 1)))

	// Trace recording, verification and block decoding.
	var record, verify time.Duration
	var decodes uint64
	for _, j := range jobs {
		path := trace.BenchPath(traces, j.prof.Name, j.seed)
		t := time.Now()
		err := recordTrace(path, j.prof, j.seed, probeInsts)
		record += time.Since(t)
		if err != nil {
			failf("%s: trace record: %v", j.name(), err)
			continue
		}
		t = time.Now()
		tr, err := openVerified(path)
		verify += time.Since(t)
		if err != nil {
			failf("%s: trace verify: %v", j.name(), err)
			continue
		}
		src, err := tr.Source()
		if err != nil {
			failf("%s: trace source: %v", j.name(), err)
			continue
		}
		src.Warmup(tr.Meta().Records, func(uint64) {})
		decodes += tr.Decodes()
	}
	m.set("trace.record_s", record.Seconds())
	m.set("trace.verify_s", verify.Seconds())
	if last.swept {
		decodes = last.decodes // the sweep's own replay, lanes sharing decodes
	}
	m.set("trace.block_decodes", float64(decodes))

	// Energy pricing of every result of the last pass, repeated until the
	// total is long enough to time.
	var price time.Duration
	calls := 0
pricing:
	for price < 20*time.Millisecond {
		for i, r := range last.results {
			if r == nil {
				continue
			}
			t := time.Now()
			_, err := energy.Compute(&last.jobs[i].cfg, r)
			price += time.Since(t)
			calls++
			if err != nil {
				failf("%s: energy: %v", last.jobs[i].name(), err)
				break pricing
			}
		}
		if calls == 0 {
			break
		}
	}
	m.set("energy.compute_ms", 1e3*price.Seconds()/float64(max(calls, 1)))

	// The oracle replaying committed memory operations captured from the
	// probe jobs' runs.
	var check time.Duration
	var ops int
	for _, j := range jobs {
		log := &opLog{limit: probeOps / probeJobs}
		if _, err := (simrun.Point{Config: j.cfg, Bench: j.prof.Name, Seed: j.seed, Observer: log}).Run(nil); err != nil {
			failf("%s: observed run: %v", j.name(), err)
			continue
		}
		if len(log.ops) == 0 {
			continue
		}
		for done := 0; done < probeOps/len(jobs); done += len(log.ops) {
			ck := oracle.New(0)
			t := time.Now()
			for k := range log.ops {
				if log.ops[k].Store {
					ck.StoreCommitted(&log.ops[k])
				} else {
					ck.LoadCommitted(&log.ops[k])
				}
			}
			check += time.Since(t)
			ops += len(log.ops)
			if err := ck.Err(); err != nil {
				failf("%s: oracle replay: %v", j.name(), err)
				break
			}
		}
	}
	m.set("oracle.ns_per_op", float64(check.Nanoseconds())/float64(max(ops, 1)))

	// The sweep result cache. Sweep-trace measures it in every pass; the
	// other workloads serve their last pass's results from a fresh on-disk
	// cache through sweep.Runner.
	if last.swept {
		m.set("sweep.cached_pass_s", last.cached.Seconds())
		m.set("sweep.cache_hit_frac", last.cacheHitFrac)
		m.set("sweep.ckpt_resume_frac", last.resumeFrac)
		return fails
	}
	cache, err := sweep.NewDiskCache(results)
	if err != nil {
		return append(fails, fmt.Sprintf("probe cache: %v", err))
	}
	var sjobs []sweep.Job
	var index []int // position in last.jobs of each sweep job
	for i, j := range last.jobs {
		if last.results[i] == nil {
			continue
		}
		sj := sweep.Job{Config: j.cfg, Bench: j.prof, Seed: j.seed}
		cache.Put(sj.Key(), last.results[i])
		sjobs = append(sjobs, sj)
		index = append(index, i)
	}
	t := time.Now()
	outs, st, err := (&sweep.Runner{Workers: e.workers, Cache: cache}).Run(sjobs)
	m.set("sweep.cached_pass_s", time.Since(t).Seconds())
	switch {
	case err != nil:
		failf("cached sweep: %v", err)
	case st.Ran != 0:
		failf("cached sweep simulated %d jobs", st.Ran)
	}
	for k, o := range outs {
		if i := index[k]; o.Result == nil || sweep.ResultDigest(o.Result) != last.digests[i] {
			failf("%s: cached result differs from the simulated one", last.jobs[i].name())
		}
	}
	m.set("sweep.cache_hit_frac", float64(st.CacheHits)/float64(max(st.Unique, 1)))
	m.set("sweep.ckpt_resume_frac", float64(last.resumed)/float64(max(len(last.jobs), 1)))
	return fails
}
