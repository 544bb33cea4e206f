package simrun

import (
	"context"

	"repro/internal/batch"
	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BatchKey returns the grouping key under which the point can share a
// batch lane group: points with equal keys run the same benchmark and seed
// under warm-up-equivalent configurations (ckpt.Key), so one warm-up image
// serves every lane of the group.
func (p Point) BatchKey() (string, error) {
	cfg, err := p.effectiveConfig()
	if err != nil {
		return "", err
	}
	return ckpt.Key(&cfg, p.Bench, p.Seed), nil
}

// RunBatch executes many points, mapping warm-up-compatible groups onto
// the lane-parallel engine (internal/batch) and running singleton groups
// scalar. Outcomes are indexed like points; a point's failure is reported
// in its Outcome.Err and never aborts the others. Only cancellation makes
// RunBatch itself return an error.
func RunBatch(ctx context.Context, points []Point) ([]*Outcome, error) {
	outs := make([]*Outcome, len(points))
	groups := make(map[string][]int)
	var order []string
	for i := range points {
		key, err := points[i].BatchKey()
		if err != nil {
			outs[i] = &Outcome{Err: err}
			continue
		}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	for _, key := range order {
		idx := groups[key]
		if len(idx) >= 2 {
			err := runGroup(ctx, points, idx, outs)
			if err == nil {
				continue
			}
			if ctx != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// A group-level failure (bad trace, incompatible snapshot,
			// arena mis-sizing) falls back to scalar so one broken point
			// cannot take down its groupmates.
		}
		for _, i := range idx {
			out, err := points[i].Run(ctx)
			if err != nil {
				if ctx != nil && ctx.Err() != nil {
					return nil, ctx.Err()
				}
				out = &Outcome{Err: err}
			}
			outs[i] = out
		}
	}
	return outs, nil
}

// runGroup executes one warm-up-compatible group as lanes of a batch. All
// points in idx share (bench, seed, warm-relevant config slice) by key
// construction; the warm-up image is resolved once and restored into every
// lane.
func runGroup(ctx context.Context, points []Point, idx []int, outs []*Outcome) error {
	prof, err := workload.ByName(points[idx[0]].Bench)
	if err != nil {
		return err
	}
	specs := make([]batch.Spec, len(idx))
	groupOuts := make([]*Outcome, len(idx))
	var shared *ckpt.Snapshot
	for k, i := range idx {
		p := points[i]
		cfg, err := p.effectiveConfig()
		if err != nil {
			return err
		}
		out := &Outcome{Batched: true}
		var snap *ckpt.Snapshot
		switch {
		case p.Snapshot != nil:
			snap = p.Snapshot
			out.Resumed = true
		case cfg.WarmupInsts > 0:
			// The group's raison d'être: one warm-up serves every lane.
			// Unlike the scalar path this builds even without a store —
			// the build replaces K functional warm-ups, not one.
			if shared == nil {
				shared, err = resolveGroupSnapshot(&p, &cfg, prof, out)
				if err != nil {
					return err
				}
			}
			snap = shared
			out.Resumed = true
		}
		if snap != nil {
			if err := snap.Check(&cfg, p.Bench, p.Seed); err != nil {
				return err
			}
		}
		src, warm, err := laneSource(&cfg, snap, prof, p.Seed)
		if err != nil {
			return err
		}
		var obs cpu.CommitObserver
		if p.Oracle {
			ck := oracle.New(0)
			obs = ck
			out.Oracle = ck
		} else {
			obs = p.Observer
		}
		specs[k] = batch.Spec{Config: cfg, Source: src, Warm: warm, Observer: obs}
		groupOuts[k] = out
	}
	results, err := batch.Run(ctx, specs)
	if err != nil {
		return err
	}
	for k, i := range idx {
		groupOuts[k].Result = results[k]
		// Per-lane energy report under the lane's own config (the group
		// shares only warm-relevant fields; energy.table may differ).
		if rep, err := energy.Compute(&specs[k].Config, results[k]); err != nil {
			groupOuts[k].Err = err
		} else {
			groupOuts[k].Energy = rep
		}
		outs[i] = groupOuts[k]
	}
	return nil
}

// resolveGroupSnapshot obtains a warm-up image, for a batched group or a
// scalar point: a store hit when the point carries a store, otherwise a
// (single-flight) build that the store then keeps. out records the build.
func resolveGroupSnapshot(p *Point, cfg *config.Config, prof workload.Profile, out *Outcome) (*ckpt.Snapshot, error) {
	if p.Ckpt != nil {
		if snap, ok := p.Ckpt.Get(ckpt.Key(cfg, p.Bench, p.Seed)); ok {
			return snap, nil
		}
	}
	snap, err := buildShared(cfg, prof, p.Seed)
	if err != nil {
		return nil, err
	}
	if p.Ckpt != nil {
		p.Ckpt.Put(snap)
	}
	out.CkptBuilt = true
	return snap, nil
}

// laneSource builds one lane's workload source and warm image: positioned
// at the snapshot when one is present, fresh otherwise.
func laneSource(cfg *config.Config, snap *ckpt.Snapshot, prof workload.Profile, seed uint64) (workload.Source, *mem.HierarchyState, error) {
	if snap == nil {
		src, err := trace.SourceFor(cfg, prof, seed)
		return src, nil, err
	}
	src, err := restoredSource(cfg, snap, prof, seed)
	if err != nil {
		return nil, nil, err
	}
	return src, snap.Hier, nil
}
