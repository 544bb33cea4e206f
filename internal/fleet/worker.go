package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/blob"
	"repro/internal/ckpt"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Worker leases jobs from a coordinator and runs them through an unchanged
// local sweep.Runner. It heartbeats each lease while the simulation runs
// (cancelling the run promptly if the lease is revoked or lost), fetches
// missing trace artifacts by content digest, shares warm-up checkpoints
// through the remote store, and uploads results with capped-backoff
// retries. Construct with a Client and call Run.
type Worker struct {
	// Client is the coordinator connection.
	Client *Client
	// Name identifies the worker in coordinator logs and stats.
	Name string
	// Ckpts is this worker's local warm-up checkpoint store, layered over
	// the coordinator's checkpoint space; nil keeps it in memory.
	Ckpts ckpt.Store
	// TraceDir is where traces fetched by digest land; "" uses a
	// per-worker temporary directory.
	TraceDir string
	// Poll is the idle re-poll interval when the queue is empty (default
	// 250ms).
	Poll time.Duration
	// OnEvent, when non-nil, receives one log line per notable event.
	OnEvent func(string)

	ckpts ckpt.Store // Ckpts over the coordinator's space, set by Run
}

// logf emits a worker log line through OnEvent.
func (w *Worker) logf(format string, args ...any) {
	if w.OnEvent != nil {
		w.OnEvent(fmt.Sprintf("worker %s: %s", w.Name, fmt.Sprintf(format, args...)))
	}
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 250 * time.Millisecond
}

func (w *Worker) traceDir() (string, error) {
	if w.TraceDir != "" {
		return w.TraceDir, nil
	}
	dir, err := os.MkdirTemp("", "elsqworker-traces-")
	if err != nil {
		return "", err
	}
	w.TraceDir = dir
	return dir, nil
}

// Run leases and executes jobs until ctx is cancelled. Transient protocol
// failures are absorbed by the client's backoff; a lease that cannot be
// obtained at all just waits for the next poll. Run only returns ctx.Err().
func (w *Worker) Run(ctx context.Context) error {
	if w.ckpts == nil {
		local := w.Ckpts
		if local == nil {
			local = ckpt.NewMemStore()
		}
		w.ckpts = ckpt.Over(blob.Layered{
			Local:  local.Blobs(),
			Remote: w.Client.Blobs(context.Background(), SpaceCkpt),
		})
	}
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lease, err := w.Client.Lease(ctx, w.Name)
		if err != nil {
			w.logf("lease: %v", err)
			if !sleepCtx(ctx, w.poll()) {
				return ctx.Err()
			}
			continue
		}
		if lease == nil {
			if !sleepCtx(ctx, w.poll()) {
				return ctx.Err()
			}
			continue
		}
		w.runOne(ctx, lease)
	}
}

// runOne executes a single leased job end to end.
func (w *Worker) runOne(ctx context.Context, lease *LeaseResponse) {
	job, err := lease.Spec.Job()
	if err != nil {
		// A spec this coordinator handed out but this build cannot parse
		// is permanent: retrying on another worker of the same build
		// cannot help.
		w.logf("job %s: bad spec: %v", lease.Key, err)
		_ = w.Client.Fail(ctx, lease.Key, lease.Lease, err.Error(), true)
		return
	}
	if err := w.ensureTrace(ctx, &job); err != nil {
		w.logf("job %s: trace: %v", lease.Key, err)
		_ = w.Client.Fail(ctx, lease.Key, lease.Lease, err.Error(), false)
		return
	}

	// Heartbeat the lease while the simulation runs; a revoked or lost
	// lease cancels the run so the worker frees up promptly.
	jobCtx, cancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		ttl := time.Duration(lease.TTLMillis) * time.Millisecond
		interval := ttl / 3
		if interval <= 0 {
			interval = time.Second
		}
		for {
			if !sleepCtx(jobCtx, interval) {
				return
			}
			if err := w.Client.Renew(jobCtx, lease.Key, lease.Lease); err != nil {
				if errors.Is(err, ErrGone) || errors.Is(err, ErrLeaseLost) {
					w.logf("job %s: lease revoked (%v), abandoning", lease.Key, err)
					cancel()
					return
				}
				w.logf("job %s: renew: %v", lease.Key, err)
			}
		}
	}()

	runner := sweep.Runner{Workers: 1, Checkpoints: w.ckpts}
	out, _, err := runner.RunContext(jobCtx, []sweep.Job{job})
	cancel()
	<-hbDone

	switch {
	case jobCtx.Err() != nil && ctx.Err() == nil && err != nil:
		// Lease revoked mid-run: someone else owns the job now; nothing
		// to report.
		return
	case ctx.Err() != nil:
		return
	case err != nil:
		w.logf("job %s: %v", lease.Key, err)
		_ = w.Client.Fail(ctx, lease.Key, lease.Lease, err.Error(), false)
	default:
		if cerr := w.Client.Complete(ctx, lease.Key, lease.Lease, out[0].Result); cerr != nil {
			w.logf("job %s: upload: %v", lease.Key, cerr)
			return
		}
		w.logf("job %s: done (attempt %d)", lease.Key, lease.Attempt)
	}
}

// ensureTrace makes a trace-driven job runnable on this machine: when the
// config's TracePath is absent or does not match the demanded content
// digest, the trace is fetched from the coordinator by digest (verified
// end to end) and the config repointed at the local copy.
func (w *Worker) ensureTrace(ctx context.Context, job *sweep.Job) error {
	digest := job.Config.TraceDigest
	if digest == "" {
		return nil
	}
	if p := job.Config.TracePath; p != "" {
		if t, err := trace.Cached(p); err == nil && t.Meta().Digest == digest {
			return nil // a valid local copy already
		}
	}
	dir, err := w.traceDir()
	if err != nil {
		return err
	}
	path, err := w.Client.FetchTrace(ctx, digest, dir)
	if err != nil {
		return err
	}
	job.Config.TracePath = path
	return nil
}
