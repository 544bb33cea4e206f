package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/ckpt"
	"repro/internal/cpu"
	"repro/internal/sweep"
)

// Default coordinator tuning. LeaseTTL trades re-dispatch latency after a
// worker death against heartbeat traffic; MaxAttempts bounds how often a
// job that keeps killing its workers (or keeps failing transiently) is
// re-dispatched before it is failed permanently.
const (
	DefaultLeaseTTL    = 2 * time.Minute
	DefaultMaxAttempts = 5
	maxErrorSamples    = 8
)

// taskState is the lease state machine of one queued unique job:
//
//	pending --lease--> leased --complete--> done (leaves the task table)
//	   ^                  |  \--fail(permanent or attempts exhausted)--> failed
//	   \---expiry/fail----/
//
// Completions are accepted in any state (at-least-once dispatch makes
// stale-lease results valid compute); expiry and transient failure re-queue
// until MaxAttempts is exhausted.
type taskState int

const (
	taskPending taskState = iota
	taskLeased
)

// task is one unique queued simulation.
type task struct {
	spec     JobSpec
	key      string
	state    taskState
	attempts int
	lease    string
	worker   string
	deadline time.Time
	canceled bool // every owning sweep cancelled; drop on next touch
	sweeps   map[string]struct{}
}

// doneEntry records a resolved unique job: the digest of the accepted
// result (for idempotent duplicate detection), or the permanent failure.
type doneEntry struct {
	digest string
	failed bool
	err    string
}

// sweepRun is the bookkeeping of one submitted sweep: its jobs in
// submission order (duplicates preserved — they fan out like the local
// Runner) and the cancel flag. hits records the keys already resolved at
// submission time — this sweep's cache hits; it is written once under the
// coordinator lock and read-only afterwards.
type sweepRun struct {
	id       string
	specs    []JobSpec
	keys     []string
	hits     map[string]struct{}
	canceled bool
	errs     []string
}

// Options configures a Coordinator.
type Options struct {
	// Results is the authoritative result store, holding each result's
	// JSON under its job key; nil defaults to an in-memory store. Results
	// must outlive the sweeps that reference them (the service pairs the
	// coordinator with a persistent sweep.DiskCache for exactly this
	// reason).
	Results blob.Store
	// Ckpts backs the checkpoint blob space; nil disables it.
	Ckpts ckpt.Store
	// Traces backs the trace blob space (see OpenTraces); nil disables
	// it.
	Traces blob.Store
	// LeaseTTL and MaxAttempts override the defaults when positive.
	LeaseTTL    time.Duration
	MaxAttempts int
	// Now overrides the clock (tests inject a manual clock to force lease
	// expiry deterministically).
	Now func() time.Time
}

// Coordinator is the fleet's in-process state machine: the job queue, the
// lease table, per-sweep bookkeeping and the artifact stores. All methods
// are safe for concurrent use. It performs no I/O of its own beyond the
// injected stores and owns no goroutines; Server drives lease expiry.
type Coordinator struct {
	// blobs holds the store behind each enabled blob space, fixed at
	// construction; results reads and writes the result space's JSON.
	blobs       map[string]blob.Store
	results     sweep.Cache
	leaseTTL    time.Duration
	maxAttempts int
	now         func() time.Time

	mu      sync.Mutex
	tasks   map[string]*task
	queue   []*task // pending tasks, dispatch order
	done    map[string]*doneEntry
	sweeps  map[string]*sweepRun
	nextID  int
	nextSeq int
	stats   CoordStats
	// watch is closed and replaced on every state change; long-poll and
	// stream waiters select on the snapshot they grabbed under the lock.
	watch chan struct{}
}

// NewCoordinator builds a coordinator from opts.
func NewCoordinator(opts Options) *Coordinator {
	if opts.Results == nil {
		opts.Results = blob.NewMem()
	}
	c := &Coordinator{
		results:     sweep.Over(opts.Results),
		blobs:       map[string]blob.Store{SpaceResult: opts.Results},
		leaseTTL:    opts.LeaseTTL,
		maxAttempts: opts.MaxAttempts,
		now:         opts.Now,
		tasks:       make(map[string]*task),
		done:        make(map[string]*doneEntry),
		sweeps:      make(map[string]*sweepRun),
		watch:       make(chan struct{}),
	}
	if opts.Ckpts != nil {
		c.blobs[SpaceCkpt] = opts.Ckpts.Blobs()
	}
	if opts.Traces != nil {
		c.blobs[SpaceTrace] = opts.Traces
	}
	if c.leaseTTL <= 0 {
		c.leaseTTL = DefaultLeaseTTL
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = DefaultMaxAttempts
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// notifyLocked wakes every waiter observing sweep state. Callers hold mu.
func (c *Coordinator) notifyLocked() {
	close(c.watch)
	c.watch = make(chan struct{})
}

// Watch returns a channel that closes on the next state change. Grab it,
// check the state you care about, then select on the channel.
func (c *Coordinator) Watch() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.watch
}

// Submit registers a sweep. Jobs already resolved — in the done table or
// the result store — are counted as done immediately; the rest join the
// global task table (deduplicated by key across sweeps) and the dispatch
// queue. The error is non-nil only for malformed specs, in which case
// nothing is registered.
func (c *Coordinator) Submit(specs []JobSpec) (SubmitResponse, error) {
	type keyed struct {
		spec JobSpec
		key  string
	}
	ks := make([]keyed, len(specs))
	for i, s := range specs {
		if _, err := s.Job(); err != nil {
			return SubmitResponse{}, fmt.Errorf("job %d: %w", i, err)
		}
		ks[i] = keyed{spec: s, key: s.Key()}
	}

	// Probe the result store for unseen keys outside the lock: Get may be
	// a disk read.
	probe := make(map[string]*cpu.Result)
	for _, k := range ks {
		if _, ok := probe[k.key]; ok {
			continue
		}
		if r, ok := c.results.Get(k.key); ok {
			probe[k.key] = r
		} else {
			probe[k.key] = nil
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	run := &sweepRun{id: fmt.Sprintf("s%06d", c.nextID), hits: make(map[string]struct{})}
	resp := SubmitResponse{ID: run.id, Total: len(specs)}
	seen := make(map[string]struct{})
	for _, k := range ks {
		run.specs = append(run.specs, k.spec)
		run.keys = append(run.keys, k.key)
		if _, dup := seen[k.key]; dup {
			continue
		}
		seen[k.key] = struct{}{}
		resp.Unique++
		if d, ok := c.done[k.key]; ok {
			if !d.failed {
				resp.Done++
				run.hits[k.key] = struct{}{}
			}
			continue
		}
		if t, ok := c.tasks[k.key]; ok {
			t.sweeps[run.id] = struct{}{}
			continue
		}
		if r := probe[k.key]; r != nil {
			c.done[k.key] = &doneEntry{digest: sweep.ResultDigest(r)}
			c.stats.CacheHits++
			c.stats.Done++
			resp.Done++
			run.hits[k.key] = struct{}{}
			continue
		}
		t := &task{spec: k.spec, key: k.key, sweeps: map[string]struct{}{run.id: {}}}
		c.tasks[k.key] = t
		c.queue = append(c.queue, t)
	}
	resp.Keys = run.keys
	c.sweeps[run.id] = run
	c.stats.Sweeps++
	c.notifyLocked()
	return resp, nil
}

// Lease grants the next pending job to worker, work-stealing style: any
// idle worker gets whatever is at the head of the queue, including jobs
// re-queued by another worker's lease expiry. ok is false when no work is
// pending.
func (c *Coordinator) Lease(worker string) (LeaseResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	for len(c.queue) > 0 {
		t := c.queue[0]
		c.queue = c.queue[1:]
		if t.state != taskPending || c.tasks[t.key] != t {
			continue // stale queue entry (completed or cancelled while pending)
		}
		if t.canceled {
			delete(c.tasks, t.key)
			continue
		}
		t.state = taskLeased
		t.attempts++
		c.nextSeq++
		t.lease = fmt.Sprintf("L%08d", c.nextSeq)
		t.worker = worker
		t.deadline = c.now().Add(c.leaseTTL)
		return LeaseResponse{
			Key:       t.key,
			Lease:     t.lease,
			Spec:      t.spec,
			TTLMillis: c.leaseTTL.Milliseconds(),
			Attempt:   t.attempts,
		}, true
	}
	return LeaseResponse{}, false
}

// Lease/renew error sentinels. ErrGone means the job no longer wants this
// worker's work (done, failed, or cancelled); ErrLeaseLost means the lease
// expired and the job was re-dispatched. Either way the worker abandons
// the run.
var (
	ErrGone      = errors.New("fleet: task gone")
	ErrLeaseLost = errors.New("fleet: lease lost")
	ErrNotFound  = errors.New("fleet: not found")
	ErrConflict  = errors.New("fleet: conflicting duplicate result")
)

// Renew extends a held lease (worker heartbeat).
func (c *Coordinator) Renew(key, lease string) (RenewResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	t, ok := c.tasks[key]
	if !ok {
		return RenewResponse{}, ErrGone
	}
	if t.canceled {
		delete(c.tasks, t.key)
		c.notifyLocked()
		return RenewResponse{}, ErrGone
	}
	if t.state != taskLeased || t.lease != lease {
		return RenewResponse{}, ErrLeaseLost
	}
	t.deadline = c.now().Add(c.leaseTTL)
	return RenewResponse{TTLMillis: c.leaseTTL.Milliseconds()}, nil
}

// Complete absorbs a result upload. Any lease state is accepted — under
// at-least-once dispatch a stale-lease result is still valid compute — and
// re-uploads are idempotent when the result digest matches the accepted
// one. A digest conflict on a deterministic simulation means corruption
// somewhere; the first result is kept and ErrConflict returned. duplicate
// reports an idempotent re-upload.
func (c *Coordinator) Complete(key, lease string, r *cpu.Result) (duplicate bool, err error) {
	if !sweep.ValidResult(r) {
		return false, fmt.Errorf("fleet: complete %s: implausible result", key)
	}
	digest := sweep.ResultDigest(r)

	c.mu.Lock()
	_, hasTask := c.tasks[key]
	if d, ok := c.done[key]; ok && !d.failed {
		defer c.mu.Unlock()
		if d.digest != digest {
			c.stats.Conflicts++
			return false, ErrConflict
		}
		c.stats.Duplicates++
		return true, nil
	}
	if !hasTask {
		c.mu.Unlock()
		return false, ErrNotFound
	}
	// Accepted regardless of lease or cancellation state: the digest is
	// the integrity check, and even a cancelled job's result is worth
	// keeping — the next submission of the same point becomes an instant
	// hit.
	delete(c.tasks, key)
	c.done[key] = &doneEntry{digest: digest}
	c.stats.Completes++
	c.stats.Done++
	c.notifyLocked()
	c.mu.Unlock()

	// Store outside the lock (may be a disk write).
	c.results.Put(key, r)
	return false, nil
}

// Fail records a worker-reported failure. Transient failures re-queue the
// job (at the front, so a healthy worker retries it promptly) until
// MaxAttempts dispatches have been burned; permanent ones fail it
// immediately.
func (c *Coordinator) Fail(key, lease, msg string, permanent bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tasks[key]
	if !ok {
		return ErrGone
	}
	if t.state == taskLeased && t.lease != lease {
		return ErrLeaseLost
	}
	if t.canceled {
		delete(c.tasks, key)
		c.notifyLocked()
		return nil
	}
	if permanent || t.attempts >= c.maxAttempts {
		c.failLocked(t, msg)
	} else {
		t.state = taskPending
		t.lease = ""
		c.queue = append([]*task{t}, c.queue...)
	}
	c.notifyLocked()
	return nil
}

// failLocked resolves t as permanently failed and records the message on
// every owning sweep.
func (c *Coordinator) failLocked(t *task, msg string) {
	delete(c.tasks, t.key)
	c.done[t.key] = &doneEntry{failed: true, err: msg}
	c.stats.Failed++
	for id := range t.sweeps {
		if run, ok := c.sweeps[id]; ok && len(run.errs) < maxErrorSamples {
			run.errs = append(run.errs, fmt.Sprintf("%s: %s", t.key[:12], msg))
		}
	}
}

// Expire re-queues every task whose lease deadline has passed (the
// at-least-once re-dispatch path). Server calls it on a ticker; tests call
// it directly after advancing their injected clock.
func (c *Coordinator) Expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
}

func (c *Coordinator) expireLocked() {
	now := c.now()
	changed := false
	for _, t := range c.tasks {
		if t.state != taskLeased || t.deadline.After(now) {
			continue
		}
		// Lease expired: the worker is presumed dead or partitioned.
		c.stats.Expired++
		changed = true
		if t.canceled {
			delete(c.tasks, t.key)
			continue
		}
		if t.attempts >= c.maxAttempts {
			c.failLocked(t, fmt.Sprintf("lease expired %d times", t.attempts))
			continue
		}
		t.state = taskPending
		t.lease = ""
		c.queue = append([]*task{t}, c.queue...)
	}
	if changed {
		c.notifyLocked()
	}
}

// Cancel marks a sweep cancelled. Pending tasks owned only by cancelled
// sweeps are dropped from the queue; leased ones are revoked at their next
// renew, which frees the worker promptly (the worker cancels its
// simulation context on ErrGone).
func (c *Coordinator) Cancel(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	run, ok := c.sweeps[id]
	if !ok {
		return ErrNotFound
	}
	if run.canceled {
		return nil
	}
	run.canceled = true
	for _, t := range c.tasks {
		if _, owns := t.sweeps[id]; !owns {
			continue
		}
		live := false
		for sid := range t.sweeps {
			if s, ok := c.sweeps[sid]; ok && !s.canceled {
				live = true
				break
			}
		}
		if !live {
			t.canceled = true
			if t.state == taskPending {
				delete(c.tasks, t.key)
			}
		}
	}
	c.notifyLocked()
	return nil
}

// Status reports a sweep's live progress.
func (c *Coordinator) Status(id string) (SweepStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked(id)
}

func (c *Coordinator) statusLocked(id string) (SweepStatus, bool) {
	run, ok := c.sweeps[id]
	if !ok {
		return SweepStatus{}, false
	}
	st := SweepStatus{ID: id, Total: len(run.keys), Canceled: run.canceled, Errors: run.errs}
	for _, k := range run.keys {
		if d, ok := c.done[k]; ok {
			if d.failed {
				st.Failed++
			} else {
				st.Done++
			}
		}
	}
	return st, true
}

// WaitChange blocks until the sweep's progress counts differ from prev,
// the sweep finishes, the timeout elapses, or cancel fires; it returns the
// current status either way.
func (c *Coordinator) WaitChange(id string, prev SweepStatus, timeout time.Duration, cancel <-chan struct{}) (SweepStatus, bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		st, ok := c.statusLocked(id)
		w := c.watch
		c.mu.Unlock()
		changed := st.Done != prev.Done || st.Failed != prev.Failed || st.Canceled != prev.Canceled
		if !ok || st.Finished() || changed {
			return st, ok
		}
		select {
		case <-w:
		case <-deadline.C:
			return st, ok
		case <-cancel:
			return st, ok
		}
	}
}

// Results assembles a sweep's outcomes in submission order — the same
// canonical order a local sweep.Runner returns — with per-job results
// fetched from the result store. ok is false for an unknown sweep; a
// non-nil error means a done job's result has been evicted from the store
// (the store must outlive the sweeps referencing it).
func (c *Coordinator) Results(id string) (ResultsResponse, bool, error) {
	c.mu.Lock()
	run, ok := c.sweeps[id]
	if !ok {
		c.mu.Unlock()
		return ResultsResponse{}, false, nil
	}
	specs := run.specs
	keys := append([]string(nil), run.keys...)
	hits := run.hits
	entries := make([]*doneEntry, len(keys))
	for i, k := range keys {
		entries[i] = c.done[k]
	}
	c.mu.Unlock()

	resp := ResultsResponse{}
	resp.Stats.Total = len(keys)
	seen := make(map[string]struct{})
	results := make(map[string]*cpu.Result)
	for i, k := range keys {
		env := OutcomeEnvelope{Spec: specs[i], Key: k}
		switch d := entries[i]; {
		case d == nil:
			env.Err = "unresolved"
		case d.failed:
			env.Err = d.err
		default:
			_, env.CacheHit = hits[k]
			r, cached := results[k]
			if !cached {
				var ok bool
				if r, ok = c.results.Get(k); !ok {
					return ResultsResponse{}, true, fmt.Errorf("fleet: result %s evicted from store", k)
				}
				results[k] = r
			}
			env.Result = r
		}
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			resp.Stats.Unique++
			if _, hit := hits[k]; hit {
				resp.Stats.CacheHits++
			} else {
				resp.Stats.Ran++
			}
		}
		resp.Outcomes = append(resp.Outcomes, env)
	}
	return resp, true, nil
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() CoordStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Queued = len(c.queue)
	leased := 0
	for _, t := range c.tasks {
		if t.state == taskLeased {
			leased++
		}
	}
	s.Leased = leased
	return s
}

// PutResult primes the result blob space (an anonymous, lease-less
// completion: if a task for the key is queued or leased it resolves, and
// waiting sweeps observe it). Complete rejects an implausible result.
func (c *Coordinator) PutResult(key string, r *cpu.Result) error {
	_, err := c.Complete(key, "", r)
	if err == ErrNotFound {
		// No task wants it; cache it anyway.
		c.results.Put(key, r)
		c.mu.Lock()
		if _, ok := c.done[key]; !ok {
			c.done[key] = &doneEntry{digest: sweep.ResultDigest(r)}
		}
		c.mu.Unlock()
		return nil
	}
	return err
}
