// Package fleet distributes sweep execution across processes and machines.
// It layers an HTTP coordinator/worker protocol over the local
// sweep.Runner job model: a coordinator accepts config points, serves
// already-computed results straight from the sweep cache, queues misses
// onto a work-stealing job queue with lease expiry and at-least-once
// re-dispatch, and exposes three content-addressed blob spaces (results by
// job key, warm-up checkpoints by ckpt.Key, traces by .elt content digest),
// each a blob.Store, that workers fetch from and push to with end-to-end
// digest verification.
//
// The pieces:
//
//   - Coordinator is the in-process state machine: job queue, lease table,
//     sweep bookkeeping and the blob store behind each space. It has no
//     HTTP in it and is exercised directly by the race tests.
//   - Server wraps a Coordinator in the versioned JSON API ("/v1/...").
//     A blob GET serves the stored bytes as they are; a PUT stores the
//     uploaded bytes once the space's codec accepts them.
//   - Client speaks that API with capped exponential backoff and verifies
//     the sha256 body digest of every blob fetch; Client.Blobs exposes a
//     blob space as a blob.Remote, which the typed edges (ckpt.Over,
//     sweep.Over) read and write like any local store.
//   - Worker leases jobs, runs them through an unchanged local
//     sweep.Runner, heartbeats its leases, and uploads results.
//
// Correctness story: every artifact is content-addressed, the simulator is
// deterministic, and results are compared by sweep.ResultsDigest — so a
// fleet sweep that completes must be byte-identical to a single-process
// sweep.Runner run of the same grid, no matter which workers died, which
// leases expired, or which uploads were duplicated along the way. The
// fault-injection tests in this package enforce exactly that.
package fleet

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// APIVersion is the protocol version; it is the "1" in the "/v1" route
// prefix. Incompatible wire changes bump it, and a client talking to the
// wrong version sees 404s rather than silent misparses.
const APIVersion = 1

// DigestHeader is the HTTP header carrying the lowercase-hex sha256 of a
// request or response body. The server rejects uploads whose body does not
// hash to the header value; the client re-verifies every blob fetch the
// same way, so a corrupted transfer is detected and retried, never
// trusted.
const DigestHeader = "X-Elsq-Sha256"

// Blob spaces of the coordinator's content-addressed artifact store.
const (
	// SpaceResult holds simulation results, JSON-encoded, by sweep job key.
	SpaceResult = "result"
	// SpaceCkpt holds warm-up checkpoints in ckpt's binary encoding
	// (ckpt.Encode), by ckpt.Key.
	SpaceCkpt = "ckpt"
	// SpaceTrace holds raw .elt files by trace content digest.
	SpaceTrace = "trace"
)

// JobSpec is the wire form of one sweep.Job. The config travels as its
// full JSON encoding and the benchmark by name, so the receiving side
// reconstructs a job whose Key() is byte-identical to the submitter's.
type JobSpec struct {
	// Config is the complete simulation configuration.
	Config config.Config `json:"config"`
	// Bench names the workload profile (workload.ByName).
	Bench string `json:"bench"`
	// Seed selects the workload instantiation.
	Seed uint64 `json:"seed"`
	// Axes carries the grid labels for artifact rows (not part of the
	// job identity).
	Axes map[string]string `json:"axes,omitempty"`
}

// Spec converts a sweep.Job to its wire form.
func Spec(j sweep.Job) JobSpec {
	return JobSpec{Config: j.Config, Bench: j.Bench.Name, Seed: j.Seed, Axes: j.Axes}
}

// Job reconstructs the sweep.Job a spec describes, resolving the benchmark
// profile by name and validating the configuration.
func (s JobSpec) Job() (sweep.Job, error) {
	prof, err := workload.ByName(s.Bench)
	if err != nil {
		return sweep.Job{}, fmt.Errorf("fleet: spec: %w", err)
	}
	if err := s.Config.Validate(); err != nil {
		return sweep.Job{}, fmt.Errorf("fleet: spec %s/%s: %w", s.Config.Name(), s.Bench, err)
	}
	return sweep.Job{Config: s.Config, Bench: prof, Seed: s.Seed, Axes: s.Axes}, nil
}

// Key returns the sweep job key of the spec (config canonical encoding ×
// benchmark name × seed), without resolving the benchmark profile.
func (s JobSpec) Key() string {
	return sweep.Job{Config: s.Config, Bench: workload.Profile{Name: s.Bench}, Seed: s.Seed}.Key()
}

// SubmitRequest is the body of POST /v1/sweeps.
type SubmitRequest struct {
	// Jobs are the config points, in the submitter's canonical order.
	Jobs []JobSpec `json:"jobs"`
}

// SubmitResponse answers a sweep submission.
type SubmitResponse struct {
	// ID names the sweep for status, results and cancel calls.
	ID string `json:"id"`
	// Total is the number of submitted jobs, Unique the distinct
	// simulation identities among them, and Done how many of those were
	// already resolved at submission time (cache hits served instantly).
	Total  int `json:"total"`
	Unique int `json:"unique"`
	Done   int `json:"done"`
	// Keys holds the job key of every submitted job, in submission order.
	Keys []string `json:"keys"`
}

// SweepStatus is the live state of one sweep (GET /v1/sweeps/{id}).
type SweepStatus struct {
	// ID names the sweep.
	ID string `json:"id"`
	// Total counts the sweep's jobs; Done those resolved successfully;
	// Failed those resolved permanently unsuccessfully.
	Total  int `json:"total"`
	Done   int `json:"done"`
	Failed int `json:"failed"`
	// Canceled reports that the sweep was cancelled by the submitter.
	Canceled bool `json:"canceled,omitempty"`
	// Errors samples the failure messages (at most a handful).
	Errors []string `json:"errors,omitempty"`
}

// Finished reports whether every job has resolved (or the sweep was
// cancelled): no further progress will happen.
func (st SweepStatus) Finished() bool {
	return st.Canceled || st.Done+st.Failed >= st.Total
}

// LeaseRequest is the body of POST /v1/lease.
type LeaseRequest struct {
	// Worker identifies the leasing worker (for logs and stats).
	Worker string `json:"worker"`
}

// LeaseResponse grants one job to a worker. The worker must renew before
// the TTL elapses or the coordinator re-dispatches the job to the next
// worker that asks.
type LeaseResponse struct {
	// Key is the job's cache identity.
	Key string `json:"key"`
	// Lease is the opaque lease token for renew/complete/fail calls.
	Lease string `json:"lease"`
	// Spec is the job to run.
	Spec JobSpec `json:"spec"`
	// TTLMillis is the lease duration in milliseconds.
	TTLMillis int64 `json:"ttl_ms"`
	// Attempt is 1 for the first dispatch of this job, higher for
	// re-dispatches after expired leases or transient failures.
	Attempt int `json:"attempt"`
}

// RenewRequest is the body of POST /v1/renew (lease heartbeat).
type RenewRequest struct {
	// Key and Lease identify the held lease.
	Key   string `json:"key"`
	Lease string `json:"lease"`
}

// RenewResponse acknowledges a heartbeat.
type RenewResponse struct {
	// TTLMillis is the renewed lease duration in milliseconds.
	TTLMillis int64 `json:"ttl_ms"`
}

// CompleteRequest is the body of POST /v1/complete (result upload).
type CompleteRequest struct {
	// Key and Lease identify the lease the result fulfils. A completion
	// whose lease has been lost is still accepted — the work is valid
	// compute under at-least-once dispatch — and a completion for an
	// already-done job is idempotent when the result digests agree.
	Key   string `json:"key"`
	Lease string `json:"lease"`
	// Result is the simulation outcome.
	Result *cpu.Result `json:"result"`
}

// CompleteResponse reports how an upload was absorbed.
type CompleteResponse struct {
	// Status is "ok" for a first accept, "duplicate" for an idempotent
	// re-upload of an identical result.
	Status string `json:"status"`
}

// FailRequest is the body of POST /v1/fail (worker-reported job failure).
type FailRequest struct {
	// Key and Lease identify the held lease.
	Key   string `json:"key"`
	Lease string `json:"lease"`
	// Error describes the failure.
	Error string `json:"error"`
	// Permanent marks failures retrying cannot fix (bad spec); the job is
	// failed immediately instead of re-queued.
	Permanent bool `json:"permanent,omitempty"`
}

// OutcomeEnvelope is one job's resolution in a results response, in
// submission order.
type OutcomeEnvelope struct {
	// Spec is the submitted job.
	Spec JobSpec `json:"spec"`
	// Key is the job's cache identity.
	Key string `json:"key"`
	// CacheHit reports the job was resolved from the result store without
	// any fleet dispatch.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Result is the simulation outcome (nil if the job failed).
	Result *cpu.Result `json:"result"`
	// Err carries the failure message for failed jobs.
	Err string `json:"err,omitempty"`
}

// ResultsResponse is the body of GET /v1/sweeps/{id}/results: one envelope
// per submitted job, in submission order — the same canonical order a
// local sweep.Runner emits, so artifact digests are directly comparable.
type ResultsResponse struct {
	// Stats summarises the sweep in sweep.Stats terms.
	Stats sweep.Stats `json:"stats"`
	// Outcomes lists every job's resolution in submission order.
	Outcomes []OutcomeEnvelope `json:"outcomes"`
}

// CoordStats is the coordinator's counter snapshot (GET /v1/stats).
type CoordStats struct {
	// Sweeps counts submissions; Queued, Leased are current queue depths;
	// Done and Failed count resolved unique jobs.
	Sweeps int `json:"sweeps"`
	Queued int `json:"queued"`
	Leased int `json:"leased"`
	Done   int `json:"done"`
	Failed int `json:"failed"`
	// CacheHits counts jobs resolved instantly at submission; Completes
	// counts accepted uploads; Duplicates idempotent re-uploads;
	// Conflicts uploads rejected for digest disagreement with an accepted
	// result; Expired lease expiries re-dispatched; Rejected uploads
	// whose body failed digest verification.
	CacheHits  int `json:"cache_hits"`
	Completes  int `json:"completes"`
	Duplicates int `json:"duplicates"`
	Conflicts  int `json:"conflicts"`
	Expired    int `json:"expired"`
	Rejected   int `json:"rejected"`
}
