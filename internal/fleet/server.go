package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/blob"
	"repro/internal/ckpt"
	"repro/internal/cpu"
)

// maxBodyBytes bounds any request body the server will read: results and
// checkpoints are a few MiB at paper geometry, traces somewhat more.
const maxBodyBytes = 256 << 20

// Server exposes a Coordinator as the versioned JSON HTTP API:
//
//	POST   /v1/sweeps              submit config points
//	GET    /v1/sweeps/{id}         status (?wait=ms&done=N long-polls)
//	GET    /v1/sweeps/{id}/results outcomes in canonical submission order
//	GET    /v1/sweeps/{id}/events  progress stream (one JSON status/line)
//	DELETE /v1/sweeps/{id}         cancel
//	POST   /v1/lease               lease a job (work-stealing)
//	POST   /v1/renew               lease heartbeat
//	POST   /v1/complete            upload a result
//	POST   /v1/fail                report a failure
//	GET    /v1/stats               coordinator counters
//	GET    /v1/blob/{space}/{key}  fetch an artifact (sha256 in DigestHeader)
//	PUT    /v1/blob/{space}/{key}  push an artifact (digest-verified)
//
// Every JSON response carries the body's sha256 in DigestHeader, and every
// upload carrying the header is verified against it before a byte is
// trusted.
type Server struct {
	co  *Coordinator
	mux *http.ServeMux
}

// NewServer wires a coordinator into an http.Handler.
func NewServer(co *Coordinator) *Server {
	s := &Server{co: co, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/lease", s.handleLease)
	s.mux.HandleFunc("POST /v1/renew", s.handleRenew)
	s.mux.HandleFunc("POST /v1/complete", s.handleComplete)
	s.mux.HandleFunc("POST /v1/fail", s.handleFail)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/blob/{space}/{key}", s.handleBlobGet)
	s.mux.HandleFunc("PUT /v1/blob/{space}/{key}", s.handleBlobPut)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ExpireLoop drives lease expiry until stop fires: dead workers' jobs are
// re-dispatched even while no API traffic arrives to trigger expiry
// opportunistically.
func (s *Server) ExpireLoop(stop <-chan struct{}, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.co.Expire()
		case <-stop:
			return
		}
	}
}

// readBody reads (bounded) and digest-verifies a request body: when the
// request carries DigestHeader, a body that does not hash to it is
// rejected — a corrupted upload must be retried, never absorbed.
func readBody(r *http.Request) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if len(b) > maxBodyBytes {
		return nil, fmt.Errorf("body exceeds %d bytes", maxBodyBytes)
	}
	if want := r.Header.Get(DigestHeader); want != "" {
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			return nil, fmt.Errorf("body digest %s does not match %s header %s", got, DigestHeader, want)
		}
	}
	return b, nil
}

// decode reads, verifies and JSON-decodes a request body into out.
func decode(r *http.Request, out any) error {
	b, err := readBody(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("decoding body: %w", err)
	}
	return nil
}

// writeJSON writes v as JSON with the body digest in DigestHeader.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, "application/json", b)
}

// writeBody writes b with its digest in DigestHeader.
func writeBody(w http.ResponseWriter, status int, contentType string, b []byte) {
	sum := sha256.Sum256(b)
	w.Header().Set("Content-Type", contentType)
	w.Header().Set(DigestHeader, hex.EncodeToString(sum[:]))
	w.WriteHeader(status)
	w.Write(b)
}

// httpErr maps coordinator sentinels onto status codes.
func httpErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrGone):
		http.Error(w, err.Error(), http.StatusGone)
	case errors.Is(err, ErrLeaseLost):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, ErrConflict):
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decode(r, &req); err != nil {
		s.rejected(w, err)
		return
	}
	if len(req.Jobs) == 0 {
		http.Error(w, "empty sweep", http.StatusBadRequest)
		return
	}
	resp, err := s.co.Submit(req.Jobs)
	if err != nil {
		httpErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	waitMS, _ := strconv.Atoi(r.URL.Query().Get("wait"))
	prevDone, _ := strconv.Atoi(r.URL.Query().Get("done"))
	var st SweepStatus
	var ok bool
	if waitMS > 0 {
		prev := SweepStatus{ID: id, Done: prevDone, Total: 1 << 30}
		st, ok = s.co.WaitChange(id, prev, time.Duration(waitMS)*time.Millisecond, r.Context().Done())
	} else {
		st, ok = s.co.Status(id)
	}
	if !ok {
		http.Error(w, "unknown sweep "+id, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	resp, ok, err := s.co.Results(id)
	if !ok {
		http.Error(w, "unknown sweep "+id, http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleEvents streams one JSON SweepStatus line per progress change until
// the sweep finishes or the client goes away (application/x-ndjson).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.co.Status(id)
	if !ok {
		http.Error(w, "unknown sweep "+id, http.StatusNotFound)
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for {
		if enc.Encode(st) != nil {
			return
		}
		if canFlush {
			fl.Flush()
		}
		if st.Finished() {
			return
		}
		next, ok := s.co.WaitChange(id, st, 30*time.Second, r.Context().Done())
		if !ok || r.Context().Err() != nil {
			return
		}
		st = next
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.co.Cancel(r.PathValue("id")); err != nil {
		httpErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := decode(r, &req); err != nil {
		s.rejected(w, err)
		return
	}
	lease, ok := s.co.Lease(req.Worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if err := decode(r, &req); err != nil {
		s.rejected(w, err)
		return
	}
	resp, err := s.co.Renew(req.Key, req.Lease)
	if err != nil {
		httpErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := decode(r, &req); err != nil {
		s.rejected(w, err)
		return
	}
	dup, err := s.co.Complete(req.Key, req.Lease, req.Result)
	if err != nil {
		httpErr(w, err)
		return
	}
	status := "ok"
	if dup {
		status = "duplicate"
	}
	writeJSON(w, http.StatusOK, CompleteResponse{Status: status})
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if err := decode(r, &req); err != nil {
		s.rejected(w, err)
		return
	}
	if err := s.co.Fail(req.Key, req.Lease, req.Error, req.Permanent); err != nil {
		httpErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.co.Stats())
}

// rejected answers a request whose body failed to read, decode or
// digest-verify, and counts it (the client's retry shows up in
// CoordStats.Rejected, which the corruption tests assert on).
func (s *Server) rejected(w http.ResponseWriter, err error) {
	s.co.mu.Lock()
	s.co.stats.Rejected++
	s.co.mu.Unlock()
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// uploadChecks holds, per blob space, the check an upload must pass before
// its bytes are stored as they came. The result space instead goes through
// Coordinator.PutResult, which also resolves any task waiting on the key.
var uploadChecks = map[string]func(key string, b []byte) error{
	SpaceCkpt: func(key string, b []byte) error {
		// Content addressing: the snapshot must identify as the key it is
		// stored under, or fetch-by-key would serve the wrong warm-up.
		_, err := ckpt.DecodeKey(key, b)
		return err
	},
	SpaceTrace: checkTrace,
}

// blobStore returns the store behind an enabled blob space, answering 404
// for an unknown or disabled one.
func (s *Server) blobStore(w http.ResponseWriter, space string) (blob.Store, bool) {
	store, ok := s.co.blobs[space]
	if !ok {
		http.Error(w, "unknown or disabled blob space "+space, http.StatusNotFound)
	}
	return store, ok
}

// handleBlobGet serves the stored bytes as they are; every decoding edge
// re-checks what it reads.
func (s *Server) handleBlobGet(w http.ResponseWriter, r *http.Request) {
	space, key := r.PathValue("space"), r.PathValue("key")
	store, ok := s.blobStore(w, space)
	if !ok {
		return
	}
	body, ok := store.Get(key)
	if !ok {
		http.Error(w, "no "+space+" "+key, http.StatusNotFound)
		return
	}
	writeBody(w, http.StatusOK, "application/octet-stream", body)
}

func (s *Server) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	space, key := r.PathValue("space"), r.PathValue("key")
	store, ok := s.blobStore(w, space)
	if !ok {
		return
	}
	body, err := readBody(r)
	if err != nil {
		s.rejected(w, err)
		return
	}
	if space == SpaceResult {
		var res cpu.Result
		if err = json.Unmarshal(body, &res); err == nil {
			err = s.co.PutResult(key, &res)
		}
	} else if err = uploadChecks[space](key, body); err == nil {
		if err = store.Put(key, body); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if err != nil {
		httpErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}
