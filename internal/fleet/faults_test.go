package fleet

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/config"
	"repro/internal/sweep"
)

// TestFaultySweepByteIdentical is the headline fault-injection test: with
// dropped requests, dropped responses (whose retries become duplicated
// deliveries), injected delays and outright duplicated uploads on the
// workers' transport, the sweep still completes and its results are
// byte-identical to the local single-process run. The at-least-once
// machinery must be invisible in the output.
func TestFaultySweepByteIdentical(t *testing.T) {
	jobs := fleetJobs(t)
	_, localDigest := runLocal(t, jobs)

	co, srv := startFleet(t, Options{})
	ft := NewFaultTransport(nil)
	ft.Add(Fault{Match: MatchPath("/v1/complete"), Mode: DropResponse, Count: 2})
	ft.Add(Fault{Match: MatchPath("/v1/lease"), Mode: DropRequest, Count: 2})
	ft.Add(Fault{Match: MatchPath("/v1/complete"), Mode: Duplicate, Count: 1})
	ft.Add(Fault{Match: MatchPath("/v1/lease"), Mode: Delay, Count: 2, Delay: 20 * time.Millisecond})

	client := newTestClient(srv.URL, nil) // the submitter's transport is clean
	ctx := testCtx(t, 2*time.Minute)
	sub, err := client.Submit(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}

	startWorkers(t, srv.URL, 3, ft)
	st, err := client.Wait(ctx, sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != len(jobs) || st.Failed != 0 {
		t.Fatalf("faulty sweep: done %d failed %d (errors %v)", st.Done, st.Failed, st.Errors)
	}

	out, _, err := client.Results(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweep.ResultsDigest(out); got != localDigest {
		t.Errorf("results digest under faults %s != local %s", got, localDigest)
	}

	// The harness must actually have fired, and the coordinator must have
	// absorbed the duplicated deliveries idempotently.
	inj := ft.Injected()
	for _, m := range []FaultMode{DropRequest, DropResponse, Duplicate, Delay} {
		if inj[m] == 0 {
			t.Errorf("fault mode %s never fired (injected: %v)", m, inj)
		}
	}
	cs := co.Stats()
	if cs.Duplicates < 3 {
		t.Errorf("coordinator absorbed %d duplicate uploads, want >= 3 (stats %+v)", cs.Duplicates, cs)
	}
	if cs.Conflicts != 0 {
		t.Errorf("faulty-but-honest sweep produced %d digest conflicts", cs.Conflicts)
	}
}

// TestWorkerDeathLeaseExpiryRedispatch kills workers mid-job: two leases
// are taken and never serviced (the workers "die"), the injected clock
// jumps past the lease TTL, and live workers steal the expired jobs. The
// sweep completes with the usual byte-identical results.
func TestWorkerDeathLeaseExpiryRedispatch(t *testing.T) {
	jobs := fleetJobs(t)[:4]
	_, localDigest := runLocal(t, jobs)

	clock := newFakeClock()
	co, srv := startFleet(t, Options{LeaseTTL: time.Minute, Now: clock.Now})
	client := newTestClient(srv.URL, nil)
	ctx := testCtx(t, 2*time.Minute)

	sub, err := client.Submit(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Two workers lease a job each and are never heard from again.
	for i := 0; i < 2; i++ {
		lr, ok := co.Lease("doomed")
		if !ok {
			t.Fatal("no job to lease")
		}
		if lr.Attempt != 1 {
			t.Fatalf("first dispatch carries attempt %d", lr.Attempt)
		}
	}
	clock.Advance(2 * time.Minute) // both leases are now expired

	startWorkers(t, srv.URL, 2, nil)
	st, err := client.Wait(ctx, sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != len(jobs) || st.Failed != 0 {
		t.Fatalf("post-death sweep: done %d failed %d (errors %v)", st.Done, st.Failed, st.Errors)
	}
	if cs := co.Stats(); cs.Expired < 2 {
		t.Errorf("expired %d leases, want >= 2", cs.Expired)
	}

	out, _, err := client.Results(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweep.ResultsDigest(out); got != localDigest {
		t.Errorf("re-dispatched results digest %s != local %s", got, localDigest)
	}
}

// TestCorruptBlobFetchDetected corrupts one artifact fetch in flight: the
// client must detect the digest mismatch, refuse the bytes, and re-fetch —
// the corruption is never trusted and the final file verifies.
func TestCorruptBlobFetchDetected(t *testing.T) {
	cfg := config.Default().WithBudget(1_500, 3_000)
	_, raw, digest := recordTestTrace(t, &cfg, "gzip", 1)
	ts := blob.NewMem()
	if err := ts.Put(digest, raw); err != nil {
		t.Fatal(err)
	}
	_, srv := startFleet(t, Options{Traces: ts})

	ft := NewFaultTransport(nil)
	ft.Add(Fault{Match: MatchPath("/v1/blob/trace/"), Mode: CorruptResponse, Count: 1})
	client := newTestClient(srv.URL, ft)
	ctx := testCtx(t, time.Minute)

	path, err := client.FetchTrace(ctx, digest, t.TempDir())
	if err != nil {
		t.Fatalf("fetch with one corrupted transfer failed outright: %v", err)
	}
	stats := client.Stats()
	if stats.DigestMismatches != 1 {
		t.Errorf("detected %d digest mismatches, want exactly 1", stats.DigestMismatches)
	}
	if stats.Retries < 1 {
		t.Errorf("client recorded %d retries, want >= 1 (the re-fetch)", stats.Retries)
	}
	if inj := ft.Injected(); inj[CorruptResponse] != 1 {
		t.Errorf("corruption fired %d times, want 1", inj[CorruptResponse])
	}
	// The file on disk is the genuine artifact.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, raw) {
		t.Error("fetched trace bytes differ from the stored artifact")
	}
}

// TestDuplicateUploadIdempotentConflictRejected pins the upload semantics
// directly on the coordinator: re-uploading an identical result is an
// idempotent duplicate; uploading a different result for the same done job
// is a conflict, and the first result is kept.
func TestDuplicateUploadIdempotentConflictRejected(t *testing.T) {
	jobs := fleetJobs(t)[:1]
	local, _ := runLocal(t, jobs)
	r := local[0].Result

	co := NewCoordinator(Options{})
	sub, err := co.Submit([]JobSpec{Spec(jobs[0])})
	if err != nil {
		t.Fatal(err)
	}
	lr, ok := co.Lease("w0")
	if !ok {
		t.Fatal("no lease")
	}

	if dup, err := co.Complete(lr.Key, lr.Lease, r); err != nil || dup {
		t.Fatalf("first upload: dup=%v err=%v", dup, err)
	}
	if dup, err := co.Complete(lr.Key, lr.Lease, r); err != nil || !dup {
		t.Fatalf("identical re-upload: dup=%v err=%v, want idempotent duplicate", dup, err)
	}
	// A stale-lease re-upload of the same bytes is equally idempotent.
	if dup, err := co.Complete(lr.Key, "L-stale", r); err != nil || !dup {
		t.Fatalf("stale-lease re-upload: dup=%v err=%v", dup, err)
	}

	corrupted := *r
	corrupted.Cycles++
	if _, err := co.Complete(lr.Key, lr.Lease, &corrupted); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting upload returned %v, want ErrConflict", err)
	}

	res, ok, err := co.Results(sub.ID)
	if !ok || err != nil {
		t.Fatalf("results: ok=%v err=%v", ok, err)
	}
	if got := sweep.ResultDigest(res.Outcomes[0].Result); got != sweep.ResultDigest(r) {
		t.Error("conflict overwrote the first accepted result")
	}
	cs := co.Stats()
	if cs.Duplicates != 2 || cs.Conflicts != 1 || cs.Completes != 1 {
		t.Errorf("stats %+v, want 2 duplicates, 1 conflict, 1 complete", cs)
	}
}
