package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cpu"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// ClientStats counts what a client's retry and verification machinery did.
type ClientStats struct {
	// Requests counts HTTP attempts (including retries); Retries counts
	// re-attempts after transient failures; DigestMismatches counts
	// responses discarded because the body did not hash to its
	// DigestHeader — each one is a detected corruption that was re-fetched
	// instead of trusted.
	Requests         int64 `json:"requests"`
	Retries          int64 `json:"retries"`
	DigestMismatches int64 `json:"digest_mismatches"`
}

// Client speaks the fleet protocol. Transient failures (network errors,
// 5xx, digest mismatches) are retried with capped exponential backoff and
// jitter; 4xx responses surface immediately. The zero value is unusable;
// call NewClient.
type Client struct {
	// Base is the coordinator URL, e.g. "http://host:7977".
	Base string
	// HTTP performs the requests. Tests inject fault transports here.
	HTTP *http.Client
	// RetryBase/RetryCap/Retries tune the backoff schedule.
	RetryBase time.Duration
	RetryCap  time.Duration
	Retries   int

	requests         atomic.Int64
	retries          atomic.Int64
	digestMismatches atomic.Int64
}

// NewClient returns a client for the coordinator at base with default
// backoff (6 attempts, 100ms doubling, 5s cap).
func NewClient(base string) *Client {
	return &Client{
		Base:      strings.TrimRight(base, "/"),
		HTTP:      &http.Client{},
		RetryBase: 100 * time.Millisecond,
		RetryCap:  5 * time.Second,
		Retries:   6,
	}
}

// Stats snapshots the client counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Requests:         c.requests.Load(),
		Retries:          c.retries.Load(),
		DigestMismatches: c.digestMismatches.Load(),
	}
}

// httpStatusError is a non-2xx response; Transient reports whether
// retrying can help.
type httpStatusError struct {
	status int
	msg    string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("fleet: server status %d: %s", e.status, strings.TrimSpace(e.msg))
}

func (e *httpStatusError) transient() bool {
	return e.status >= 500 || e.status == http.StatusTooManyRequests
}

// asSentinel maps protocol status codes back to the coordinator sentinels
// so callers can errors.Is against them.
func (e *httpStatusError) asSentinel() error {
	switch e.status {
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, e.msg)
	case http.StatusGone:
		return fmt.Errorf("%w: %s", ErrGone, e.msg)
	case http.StatusConflict:
		return fmt.Errorf("%w: %s", ErrLeaseLost, e.msg)
	}
	return e
}

// errDigestMismatch marks a response body that failed verification; it is
// always transient (re-fetch).
var errDigestMismatch = errors.New("fleet: response body digest mismatch")

// do performs one verified exchange with retries: method+path with body
// (nil for none), response bytes returned. wantStatus of 0 accepts any
// 2xx; http.StatusNoContent returns (nil, nil) on 204.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (respBody []byte, status int, err error) {
	for attempt := 0; ; attempt++ {
		respBody, status, err = c.once(ctx, method, path, body)
		if err == nil {
			return respBody, status, nil
		}
		var herr *httpStatusError
		if errors.As(err, &herr) && !herr.transient() {
			return nil, status, herr.asSentinel()
		}
		if attempt >= c.Retries || ctx.Err() != nil {
			return nil, status, err
		}
		c.retries.Add(1)
		if !sleepCtx(ctx, c.backoff(attempt)) {
			return nil, status, ctx.Err()
		}
	}
}

// backoff returns the capped exponential delay for attempt (0-based), with
// up to 50% additive jitter so a worker herd does not retry in lockstep.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.RetryBase
	for i := 0; i < attempt && d < c.RetryCap; i++ {
		d *= 2
	}
	if d > c.RetryCap {
		d = c.RetryCap
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// sleepCtx sleeps d or until ctx is done; it reports false on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// once performs a single digest-stamped, digest-verified exchange.
func (c *Client) once(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	c.requests.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		sum := sha256.Sum256(body)
		req.Header.Set(DigestHeader, hex.EncodeToString(sum[:]))
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, resp.StatusCode, &httpStatusError{status: resp.StatusCode, msg: string(b)}
	}
	if want := resp.Header.Get(DigestHeader); want != "" {
		sum := sha256.Sum256(b)
		if hex.EncodeToString(sum[:]) != want {
			c.digestMismatches.Add(1)
			return nil, resp.StatusCode, errDigestMismatch
		}
	}
	return b, resp.StatusCode, nil
}

// call JSON-encodes in (when non-nil), performs the exchange, and decodes
// into out (when non-nil).
func (c *Client) call(ctx context.Context, method, path string, in, out any) (int, error) {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = b
	}
	respBody, status, err := c.do(ctx, method, path, body)
	if err != nil {
		return status, err
	}
	if out != nil && status != http.StatusNoContent {
		if err := json.Unmarshal(respBody, out); err != nil {
			return status, fmt.Errorf("fleet: decoding %s %s response: %w", method, path, err)
		}
	}
	return status, nil
}

// Submit registers jobs as one sweep.
func (c *Client) Submit(ctx context.Context, jobs []sweep.Job) (SubmitResponse, error) {
	req := SubmitRequest{Jobs: make([]JobSpec, len(jobs))}
	for i, j := range jobs {
		req.Jobs[i] = Spec(j)
	}
	var resp SubmitResponse
	_, err := c.call(ctx, http.MethodPost, "/v1/sweeps", req, &resp)
	return resp, err
}

// Status fetches a sweep's progress snapshot.
func (c *Client) Status(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	_, err := c.call(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st)
	return st, err
}

// Wait long-polls until the sweep finishes, invoking onChange (when
// non-nil) at every progress change.
func (c *Client) Wait(ctx context.Context, id string, onChange func(SweepStatus)) (SweepStatus, error) {
	var st SweepStatus
	first := true
	for {
		path := fmt.Sprintf("/v1/sweeps/%s?wait=30000&done=%d", id, st.Done)
		if first {
			path = "/v1/sweeps/" + id
		}
		var next SweepStatus
		if _, err := c.call(ctx, http.MethodGet, path, nil, &next); err != nil {
			return st, err
		}
		if first || next.Done != st.Done || next.Failed != st.Failed || next.Canceled != st.Canceled {
			if onChange != nil {
				onChange(next)
			}
		}
		st, first = next, false
		if st.Finished() {
			return st, nil
		}
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
	}
}

// Results fetches a sweep's outcomes, reconstructed as sweep.Outcomes in
// the canonical submission order.
func (c *Client) Results(ctx context.Context, id string) ([]sweep.Outcome, sweep.Stats, error) {
	var resp ResultsResponse
	if _, err := c.call(ctx, http.MethodGet, "/v1/sweeps/"+id+"/results", nil, &resp); err != nil {
		return nil, sweep.Stats{}, err
	}
	outcomes := make([]sweep.Outcome, len(resp.Outcomes))
	for i, env := range resp.Outcomes {
		job, err := env.Spec.Job()
		if err != nil {
			return nil, sweep.Stats{}, err
		}
		outcomes[i] = sweep.Outcome{Job: job, Key: env.Key, Result: env.Result, CacheHit: env.CacheHit}
	}
	return outcomes, resp.Stats, nil
}

// Cancel cancels a sweep; queued jobs are dropped and leased ones revoked
// at their next heartbeat.
func (c *Client) Cancel(ctx context.Context, id string) error {
	_, err := c.call(ctx, http.MethodDelete, "/v1/sweeps/"+id, nil, nil)
	return err
}

// Lease asks for a job; it returns (nil, nil) when none is pending.
func (c *Client) Lease(ctx context.Context, worker string) (*LeaseResponse, error) {
	var lease LeaseResponse
	status, err := c.call(ctx, http.MethodPost, "/v1/lease", LeaseRequest{Worker: worker}, &lease)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	return &lease, nil
}

// Renew heartbeats a lease. An ErrGone or ErrLeaseLost return means the
// coordinator no longer wants this worker's run.
func (c *Client) Renew(ctx context.Context, key, lease string) error {
	_, err := c.call(ctx, http.MethodPost, "/v1/renew", RenewRequest{Key: key, Lease: lease}, nil)
	return err
}

// Complete uploads a finished job's result.
func (c *Client) Complete(ctx context.Context, key, lease string, r *cpu.Result) error {
	_, err := c.call(ctx, http.MethodPost, "/v1/complete",
		CompleteRequest{Key: key, Lease: lease, Result: r}, nil)
	return err
}

// Fail reports a job failure.
func (c *Client) Fail(ctx context.Context, key, lease, msg string, permanent bool) error {
	_, err := c.call(ctx, http.MethodPost, "/v1/fail",
		FailRequest{Key: key, Lease: lease, Error: msg, Permanent: permanent}, nil)
	return err
}

// FleetStats fetches the coordinator counters.
func (c *Client) FleetStats(ctx context.Context) (CoordStats, error) {
	var st CoordStats
	_, err := c.call(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// BlobGet fetches an artifact; the response body is digest-verified (and
// transparently re-fetched on mismatch) before it is returned.
func (c *Client) BlobGet(ctx context.Context, space, key string) ([]byte, error) {
	b, _, err := c.do(ctx, http.MethodGet, "/v1/blob/"+space+"/"+key, nil)
	return b, err
}

// BlobPut pushes an artifact with its digest stamped for server-side
// verification.
func (c *Client) BlobPut(ctx context.Context, space, key string, body []byte) error {
	_, _, err := c.do(ctx, http.MethodPut, "/v1/blob/"+space+"/"+key, body)
	return err
}

// FetchTrace downloads the trace with the given content digest into dir
// (as <digest>.elt), verifying both the transfer (body sha256) and the
// content (full .elt verification against the digest) before the file is
// used. An existing verified copy is reused.
func (c *Client) FetchTrace(ctx context.Context, digest, dir string) (string, error) {
	path := filepath.Join(dir, digest+".elt")
	if t, err := trace.Cached(path); err == nil && t.Meta().Digest == digest {
		return path, nil
	}
	b, err := c.BlobGet(ctx, SpaceTrace, digest)
	if err != nil {
		return "", fmt.Errorf("fleet: fetching trace %s: %w", digest, err)
	}
	t, err := trace.New(b)
	if err != nil {
		return "", fmt.Errorf("fleet: fetched trace %s: %w", digest, err)
	}
	if err := t.Verify(); err != nil {
		return "", fmt.Errorf("fleet: fetched trace %s: %w", digest, err)
	}
	if got := t.Meta().Digest; got != digest {
		return "", fmt.Errorf("fleet: fetched trace digests to %s, wanted %s", got, digest)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, digest+".tmp-*")
	if err != nil {
		return "", err
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("fleet: writing fetched trace: %v", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return path, nil
}

// ResultCache adapts the coordinator's result blob space to sweep.Cache:
// a remote, digest-verified drop-in for the local Mem/Disk caches.
func (c *Client) ResultCache() *RemoteCache { return &RemoteCache{c: c} }

// CkptStore adapts the coordinator's checkpoint blob space to ckpt.Store:
// workers fetch warm-up snapshots by content key and push ones they build.
func (c *Client) CkptStore() *RemoteCkpts { return &RemoteCkpts{c: c} }

// RemoteCache is a sweep.Cache backed by a coordinator's result space.
// Like every sweep.Cache it treats problems as misses (Get) or no-ops
// (Put): remote flakiness slows a sweep down, never corrupts it.
type RemoteCache struct {
	c *Client
}

// Get implements sweep.Cache.
func (rc *RemoteCache) Get(key string) (*cpu.Result, bool) {
	b, err := rc.c.BlobGet(context.Background(), SpaceResult, key)
	if err != nil {
		return nil, false
	}
	var r cpu.Result
	if json.Unmarshal(b, &r) != nil || !validResult(&r) {
		return nil, false
	}
	return &r, true
}

// Put implements sweep.Cache.
func (rc *RemoteCache) Put(key string, r *cpu.Result) {
	b, err := json.Marshal(r)
	if err != nil {
		return
	}
	_ = rc.c.BlobPut(context.Background(), SpaceResult, key, b)
}

// RemoteCkpts is a ckpt.Store backed by a coordinator's checkpoint space.
type RemoteCkpts struct {
	c *Client
}

// Get implements ckpt.Store. The transfer is digest-verified by the blob
// layer and the snapshot re-checked for structural integrity; any problem
// is a miss, and the caller rebuilds the warm-up locally.
func (rs *RemoteCkpts) Get(key string) (*ckpt.Snapshot, bool) {
	b, err := rs.c.BlobGet(context.Background(), SpaceCkpt, key)
	if err != nil {
		return nil, false
	}
	snap, err := ckpt.Decode(b)
	if err != nil || snap.Key != key {
		return nil, false
	}
	return snap, true
}

// Put implements ckpt.Store.
func (rs *RemoteCkpts) Put(snap *ckpt.Snapshot) {
	b, err := ckpt.Encode(snap)
	if err != nil {
		return
	}
	_ = rs.c.BlobPut(context.Background(), SpaceCkpt, snap.Key, b)
}

// LayeredCkpts stacks a fast local checkpoint store over a remote one:
// Get prefers local and back-fills it from remote hits; Put writes
// through to both. This is what lets one worker's warm-up build serve the
// whole fleet while repeat resumes on the same worker stay in memory.
func LayeredCkpts(local, remote ckpt.Store) ckpt.Store {
	return &layeredCkpts{local: local, remote: remote}
}

type layeredCkpts struct {
	local, remote ckpt.Store
}

// Get implements ckpt.Store.
func (l *layeredCkpts) Get(key string) (*ckpt.Snapshot, bool) {
	if snap, ok := l.local.Get(key); ok {
		return snap, true
	}
	if snap, ok := l.remote.Get(key); ok {
		l.local.Put(snap)
		return snap, true
	}
	return nil, false
}

// Put implements ckpt.Store.
func (l *layeredCkpts) Put(snap *ckpt.Snapshot) {
	l.local.Put(snap)
	l.remote.Put(snap)
}
