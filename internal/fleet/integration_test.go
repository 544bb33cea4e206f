package fleet

import (
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// TestFleetSweepMatchesLocal is the tentpole integration test: a
// coordinator and three in-process workers complete a real 12-point sweep
// over HTTP, and the assembled results are byte-identical — same canonical
// order, same per-job results digest — to the same grid run on a local
// single-process sweep.Runner. A second submission of the same grid is
// then served entirely from the result store.
func TestFleetSweepMatchesLocal(t *testing.T) {
	jobs := fleetJobs(t)
	local, localDigest := runLocal(t, jobs)

	_, srv := startFleet(t, Options{Ckpts: ckpt.NewMemStore()})
	client := newTestClient(srv.URL, nil)
	ctx := testCtx(t, 2*time.Minute)

	sub, err := client.Submit(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Total != len(jobs) || sub.Unique != len(jobs) || sub.Done != 0 {
		t.Fatalf("submit: total %d unique %d done %d, want %d/%d/0",
			sub.Total, sub.Unique, sub.Done, len(jobs), len(jobs))
	}
	for i, k := range sub.Keys {
		if k != local[i].Key {
			t.Fatalf("job %d: fleet key %s != local key %s", i, k, local[i].Key)
		}
	}

	startWorkers(t, srv.URL, 3, nil)
	st, err := client.Wait(ctx, sub.ID, func(s SweepStatus) { t.Logf("progress: %d/%d", s.Done, s.Total) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != len(jobs) || st.Failed != 0 {
		t.Fatalf("sweep finished with done %d failed %d (errors %v)", st.Done, st.Failed, st.Errors)
	}

	out, stats, err := client.Results(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total != len(jobs) || stats.Ran != len(jobs) || stats.CacheHits != 0 {
		t.Errorf("stats %+v, want total=ran=%d", stats, len(jobs))
	}
	for i := range out {
		if out[i].Key != local[i].Key {
			t.Fatalf("outcome %d: key %s out of canonical order (want %s)", i, out[i].Key, local[i].Key)
		}
		// Byte-identity is the contract: the wire round-trip must not
		// perturb a single counted event.
		if sweep.ResultDigest(out[i].Result) != sweep.ResultDigest(local[i].Result) {
			t.Errorf("outcome %d (%s/%s seed %d): fleet result differs from local",
				i, jobs[i].Config.Name(), jobs[i].Bench.Name, jobs[i].Seed)
		}
	}
	if got := sweep.ResultsDigest(out); got != localDigest {
		t.Errorf("fleet results digest %s != local %s", got, localDigest)
	}

	// The same grid again: no new dispatch, all 12 served from the store.
	sub2, err := client.Submit(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sub2.Done != len(jobs) {
		t.Fatalf("re-submit resolved %d jobs at submission, want %d", sub2.Done, len(jobs))
	}
	out2, stats2, err := client.Results(ctx, sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.CacheHits != len(jobs) {
		t.Errorf("re-submit stats %+v, want %d cache hits", stats2, len(jobs))
	}
	if got := sweep.ResultsDigest(out2); got != localDigest {
		t.Errorf("cache-served results digest %s != local %s", got, localDigest)
	}
}

// TestFleetResultsCanonicalOrder pins the ordering contract with a job
// list containing a duplicate point: outcomes come back in submission
// order with the duplicate fanned out (as the local Runner does), while
// only the unique points are simulated.
func TestFleetResultsCanonicalOrder(t *testing.T) {
	jobs := fleetJobs(t)[:4]
	jobs = append(jobs, jobs[0]) // a duplicate of the first point
	local, localDigest := runLocal(t, jobs)

	_, srv := startFleet(t, Options{})
	client := newTestClient(srv.URL, nil)
	ctx := testCtx(t, 2*time.Minute)

	sub, err := client.Submit(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Total != 5 || sub.Unique != 4 {
		t.Fatalf("submit total %d unique %d, want 5/4", sub.Total, sub.Unique)
	}
	startWorkers(t, srv.URL, 2, nil)
	if _, err := client.Wait(ctx, sub.ID, nil); err != nil {
		t.Fatal(err)
	}
	out, stats, err := client.Results(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Unique != 4 || stats.Ran != 4 {
		t.Errorf("stats %+v, want unique=ran=4", stats)
	}
	for i := range out {
		if out[i].Key != local[i].Key {
			t.Fatalf("outcome %d out of submission order", i)
		}
	}
	if out[0].Key != out[4].Key || sweep.ResultDigest(out[0].Result) != sweep.ResultDigest(out[4].Result) {
		t.Error("duplicate job did not fan out to an identical outcome")
	}
	if got := sweep.ResultsDigest(out); got != localDigest {
		t.Errorf("fleet results digest %s != local %s", got, localDigest)
	}
}

// TestTraceFetchByDigest covers the remote artifact path end to end: a job
// whose config demands a trace by content digest, with a TracePath that
// does not exist on the worker, runs anyway — the worker fetches the .elt
// from the coordinator's trace space, verifies it, and produces exactly
// the result the local run with the on-disk file produces.
func TestTraceFetchByDigest(t *testing.T) {
	cfg := config.Default().WithBudget(1_500, 3_000)
	path, raw, digest := recordTestTrace(t, &cfg, "gzip", 1)

	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}

	// Local reference: same trace, real path.
	localCfg := cfg
	localCfg.TracePath = path
	localCfg.TraceDigest = digest
	local, localDigest := runLocal(t, []sweep.Job{{Config: localCfg, Bench: prof, Seed: 1}})

	ts := blob.NewMem()
	if err := ts.Put(digest, raw); err != nil {
		t.Fatal(err)
	}
	_, srv := startFleet(t, Options{Traces: ts})
	client := newTestClient(srv.URL, nil)
	ctx := testCtx(t, time.Minute)

	fleetCfg := cfg
	fleetCfg.TracePath = "/nonexistent/elsewhere.elt" // the submitter's path, useless here
	fleetCfg.TraceDigest = digest
	sub, err := client.Submit(ctx, []sweep.Job{{Config: fleetCfg, Bench: prof, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Keys[0] != local[0].Key {
		t.Fatalf("content-addressed key differs across paths: %s vs %s", sub.Keys[0], local[0].Key)
	}

	startWorkers(t, srv.URL, 1, nil)
	st, err := client.Wait(ctx, sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Failed != 0 {
		t.Fatalf("trace-driven job: done %d failed %d (errors %v)", st.Done, st.Failed, st.Errors)
	}
	out, _, err := client.Results(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweep.ResultsDigest(out); got != localDigest {
		t.Errorf("remote-trace results digest %s != local %s", got, localDigest)
	}
}

// TestCancelFreesWorker checks cancellation promptness at the fleet level:
// a worker grinding through an enormous job abandons it at the next
// heartbeat after the sweep is cancelled, and is then free to finish other
// work — proven by a second, small sweep completing on the same worker.
func TestCancelFreesWorker(t *testing.T) {
	co, srv := startFleet(t, Options{LeaseTTL: 300 * time.Millisecond})
	client := newTestClient(srv.URL, nil)
	ctx := testCtx(t, time.Minute)

	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	huge := sweep.Job{Config: config.Default().WithBudget(2_000_000_000, 0), Bench: prof, Seed: 1}
	sub, err := client.Submit(ctx, []sweep.Job{huge})
	if err != nil {
		t.Fatal(err)
	}

	startWorkers(t, srv.URL, 1, nil)
	deadline := time.Now().Add(10 * time.Second)
	for co.Stats().Leased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never leased the job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := client.Cancel(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	st, err := client.Status(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Canceled || !st.Finished() {
		t.Fatalf("cancelled sweep status %+v not finished", st)
	}

	// The worker must shed the revoked job and pick this one up.
	small := sweep.Job{Config: config.Default().WithBudget(1_000, 2_000), Bench: prof, Seed: 2}
	sub2, err := client.Submit(ctx, []sweep.Job{small})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := client.Wait(ctx, sub2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Done != 1 {
		t.Fatalf("post-cancel sweep: %+v", st2)
	}
}
