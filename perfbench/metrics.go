package main

import (
	"fmt"
	"sort"

	"repro/internal/config"
)

// metricSpec declares one reported metric: its name, unit and which
// direction is better. BENCHMARK.json lists the same names and units.
type metricSpec struct {
	name, unit, better string
}

// endToEndSpecs are the metrics a user of the simulator sees, reported by
// runs with tracing off.
var endToEndSpecs = []metricSpec{
	{"insts_per_s", "insts/s", "higher"},
	{"detailed_insts_per_s", "insts/s", "higher"},
	{"setup_s", "s", "lower"},
	{"points_per_s", "points/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// counterSpec maps a per-1000-measured-instruction metric to the result
// counter it reads; activity counters live in Result.Activity, the rest in
// Result.Counters.
type counterSpec struct {
	metric, counter string
	activity        bool
}

var pkiSpecs = []counterSpec{
	{"mem.l1_access_pki", "l1_access", true},
	{"mem.l2_access_pki", "l2_access", true},
	{"mem.mem_access_pki", "mem_access", true},
	{"core.ert_search_pki", "ert", false},
	{"core.hl_lq_pki", "hl_lq", false},
	{"core.hl_sq_pki", "hl_sq", false},
	{"core.ll_lq_pki", "ll_lq", false},
	{"core.ll_sq_pki", "ll_sq", false},
	{"core.sqm_search_pki", "sqm_search", false},
	{"core.ll_forward_global_pki", "ll_forward_global", false},
	{"fmc.epoch_open_pki", "epoch_open", true},
	{"fmc.place_steals_pki", "place_steals", false},
	{"noc.link_wait_pki", "noc_link_wait", false},
	{"noc.bus_wait_pki", "noc_bus_wait", false},
	{"noc.hops_pki", "noc_hops", false},
	{"cpu.mispredict_pki", "mispredict", false},
	{"cpu.violation_pki", "violation", false},
	{"cpu.wrongpath_load_pki", "wrongpath_load", false},
	{"cpu.migrate_stall_cycles_pki", "migrate_stall_cycles", false},
	{"svw.reexec_pki", "reexec", false},
}

// perLayerSpecs are the metrics of single layers, reported by the traced
// run.
var perLayerSpecs = func() []metricSpec {
	specs := []metricSpec{
		{"ckpt.build_s", "s", "lower"},
		{"ckpt.store_put_ms", "ms", "lower"},
		{"ckpt.store_get_ms", "ms", "lower"},
		{"ckpt.snapshot_bytes", "bytes", "lower"},
		{"workload.warmup_ns_per_inst", "ns/inst", "lower"},
		{"workload.next_ns_per_inst", "ns/inst", "lower"},
		{"mem.access_ns", "ns", "lower"},
		{"mem.l1_hit_frac", "ratio", "higher"},
		{"mem.l2_hit_frac", "ratio", "higher"},
		{"simrun.run_s", "s", "lower"},
		{"cpu.host_ns_per_sim_cycle", "ns/cycle", "lower"},
		{"cpu.host_ns_per_inst", "ns/inst", "lower"},
		{"trace.record_s", "s", "lower"},
		{"trace.verify_s", "s", "lower"},
		{"trace.block_decodes", "count", "lower"},
		{"sweep.ckpt_resume_frac", "ratio", "higher"},
		{"sweep.cache_hit_frac", "ratio", "higher"},
		{"sweep.cached_pass_s", "s", "lower"},
		{"energy.compute_ms", "ms", "lower"},
		{"oracle.ns_per_op", "ns/op", "lower"},
		{"config.resolve_s", "s", "lower"},
		{"go.allocs_per_inst", "allocs/inst", "lower"},
		{"go.alloc_bytes_per_inst", "B/inst", "lower"},
		{"go.gc_cpu_frac", "ratio", "lower"},
	}
	for _, l := range layers {
		specs = append(specs, metricSpec{"self_frac." + l, "ratio", "lower"})
	}
	for _, c := range pkiSpecs {
		specs = append(specs, metricSpec{c.metric, "1/kinst", "lower"})
	}
	return append(specs,
		metricSpec{"core.ert_false_positive_frac", "ratio", "lower"},
		metricSpec{"fmc.avg_epochs", "epochs", "lower"},
		metricSpec{"predict.accuracy", "ratio", "higher"},
		metricSpec{"predict.false_ll_frac", "ratio", "lower"},
		metricSpec{"model.mean_ipc", "insts/cycle", "higher"},
		metricSpec{"model.speedup_vs_ooo64", "x", "higher"},
		metricSpec{"model.load_locality_30", "ratio", "higher"},
		metricSpec{"model.ll_idle_frac", "ratio", "higher"},
		metricSpec{"model.bank_power_down_frac", "ratio", "higher"},
		metricSpec{"model.energy_pj_per_inst", "pJ/inst", "lower"},
		metricSpec{"phase.setup_frac", "ratio", "lower"},
		metricSpec{"phase.run_frac", "ratio", "lower"},
		metricSpec{"phase.check_frac", "ratio", "lower"},
		metricSpec{"tracing.overhead_frac", "ratio", "lower"},
		metricSpec{"check.failed_frac", "ratio", "lower"},
	)
}()

// metric is one reported value, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one spec list.
type metricSet struct {
	specs  []metricSpec
	values map[string]metric
}

func newMetricSet(specs []metricSpec) *metricSet {
	return &metricSet{specs: specs, values: map[string]metric{}}
}

// set records a value; the name must be one of the set's specs.
func (m *metricSet) set(name string, v float64) {
	for _, s := range m.specs {
		if s.name == name {
			m.values[name] = metric{Value: v, Unit: s.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// missing lists the declared metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, s := range m.specs {
		if _, ok := m.values[s.name]; !ok {
			out = append(out, s.name)
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}

// medianOver is the median of f over the passes.
func medianOver(passes []*pass, f func(p *pass) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return median(xs)
}

// work sums the pass's simulator work: warm-up plus measured instructions
// as internal/bench counts them, committed measured instructions and
// simulated cycles.
func (p *pass) work() (insts, committed, cycles uint64) {
	for i, j := range p.jobs {
		insts += j.insts()
		if r := p.results[i]; r != nil {
			committed += r.Committed
			cycles += uint64(r.Cycles)
		}
	}
	return
}

// endToEnd computes the user-visible metrics from the timed passes: each a
// median over passes.
func endToEnd(passes []*pass, rssMiB float64) *metricSet {
	m := newMetricSet(endToEndSpecs)
	m.set("insts_per_s", medianOver(passes, func(p *pass) float64 {
		insts, _, _ := p.work()
		return float64(insts) / p.wall.Seconds()
	}))
	m.set("detailed_insts_per_s", medianOver(passes, func(p *pass) float64 {
		_, committed, _ := p.work()
		return float64(committed) / p.run.Seconds()
	}))
	m.set("setup_s", medianOver(passes, func(p *pass) float64 { return p.setup.Seconds() }))
	m.set("points_per_s", medianOver(passes, func(p *pass) float64 {
		return float64(len(p.jobs)) / p.wall.Seconds()
	}))
	m.set("peak_rss_mb", rssMiB)
	return m
}

// passLayerMetrics sets the per-layer metrics measured over whole passes
// with tracing off: time in run calls per pass, per simulated cycle and per
// measured instruction, configuration resolution, and the Go runtime's
// allocation and GC share over the same passes.
func passLayerMetrics(m *metricSet, passes []*pass) {
	m.set("simrun.run_s", medianOver(passes, func(p *pass) float64 { return p.run.Seconds() }))
	m.set("cpu.host_ns_per_sim_cycle", medianOver(passes, func(p *pass) float64 {
		_, _, cycles := p.work()
		return float64(p.run.Nanoseconds()) / float64(cycles)
	}))
	m.set("cpu.host_ns_per_inst", medianOver(passes, func(p *pass) float64 {
		_, committed, _ := p.work()
		return float64(p.run.Nanoseconds()) / float64(committed)
	}))
	m.set("config.resolve_s", medianOver(passes, func(p *pass) float64 { return p.resolve.Seconds() }))
	var insts uint64
	var g goCounters
	for _, p := range passes {
		n, _, _ := p.work()
		insts += n
		g = g.add(p.rt)
	}
	m.set("go.allocs_per_inst", float64(g.mallocs)/float64(insts))
	m.set("go.alloc_bytes_per_inst", float64(g.bytes)/float64(insts))
	gcFrac := 0.0
	if g.allCPU > 0 {
		gcFrac = g.gcCPU / g.allCPU
	}
	m.set("go.gc_cpu_frac", gcFrac)
}

// countMetrics sets the deterministic per-layer metrics of one pass: event
// counts per 1000 measured instructions, ratios of counters, and the
// model's own outputs.
func countMetrics(m *metricSet, p *pass) {
	var committed uint64
	sums := map[string]uint64{}
	add := func(name string, v uint64) { sums[name] += v }
	var ipcFMC, ipcAll, ipcELSQ, ipcOoO, locality, idle, powerDown, epochs, pj float64
	var nFMC, nELSQ, nOoO, n int
	for i, r := range p.results {
		if r == nil {
			continue
		}
		n++
		committed += r.Committed
		for _, c := range pkiSpecs {
			if c.activity {
				add(c.counter, r.Activity.Get(c.counter))
			} else {
				add(c.counter, r.Counters.Get(c.counter))
			}
		}
		for _, c := range []string{"ert_false_positive", "pred_hit", "pred_miss", "pred_ll", "pred_false_ll"} {
			add(c, r.Counters.Get(c))
		}
		ipcAll += r.IPC
		locality += r.LoadDist.FracWithin(30)
		cfg := &p.jobs[i].cfg
		if cfg.Model == config.ModelFMC {
			nFMC++
			ipcFMC += r.IPC
			idle += r.LLIdleFrac
			powerDown += r.BankPowerDownFrac
			epochs += r.AvgEpochs
		}
		switch p.jobs[i].label {
		case "elsq":
			nELSQ++
			ipcELSQ += r.IPC
		case "ooo64":
			nOoO++
			ipcOoO += r.IPC
		}
		if rep := p.energy[i]; rep != nil {
			pj += rep.TotalPJ
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, c := range pkiSpecs {
		m.set(c.metric, 1000*ratio(float64(sums[c.counter]), float64(committed)))
	}
	m.set("core.ert_false_positive_frac", ratio(float64(sums["ert_false_positive"]), float64(sums["ert"])))
	m.set("fmc.avg_epochs", ratio(epochs, float64(nFMC)))
	m.set("predict.accuracy", ratio(float64(sums["pred_hit"]), float64(sums["pred_hit"]+sums["pred_miss"])))
	m.set("predict.false_ll_frac", ratio(float64(sums["pred_false_ll"]), float64(sums["pred_ll"])))
	if nFMC > 0 {
		m.set("model.mean_ipc", ipcFMC/float64(nFMC))
	} else {
		m.set("model.mean_ipc", ratio(ipcAll, float64(n)))
	}
	speedup := 0.0
	if nELSQ > 0 && nOoO > 0 {
		speedup = ratio(ipcELSQ/float64(nELSQ), ipcOoO/float64(nOoO))
	}
	m.set("model.speedup_vs_ooo64", speedup)
	m.set("model.load_locality_30", ratio(locality, float64(n)))
	m.set("model.ll_idle_frac", ratio(idle, float64(nFMC)))
	m.set("model.bank_power_down_frac", ratio(powerDown, float64(nFMC)))
	m.set("model.energy_pj_per_inst", ratio(pj, float64(committed)))
}

// phaseMetrics sets each pass phase's share of the traced passes' time:
// the phase spans' durations over the pass spans' durations.
func phaseMetrics(m *metricSet, spans []span) {
	total := map[string]int64{}
	for _, s := range spans {
		total[s.Name] += s.End - s.Start
	}
	for _, ph := range []string{"setup", "run", "check"} {
		frac := 0.0
		if total["pass"] > 0 {
			frac = float64(total[ph]) / float64(total["pass"])
		}
		m.set("phase."+ph+"_frac", frac)
	}
}

// selfFracMetrics sets each layer's share of the traced passes' flat CPU
// samples.
func selfFracMetrics(m *metricSet, fold map[string]int64) {
	var total int64
	for _, v := range fold {
		total += v
	}
	for _, l := range layers {
		frac := 0.0
		if total > 0 {
			frac = float64(fold[l]) / float64(total)
		}
		m.set("self_frac."+l, frac)
	}
}

// formatValue renders a metric value for the report.
func formatValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e5 || v < 1e-3 && v > -1e-3:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
