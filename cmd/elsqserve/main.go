// Command elsqserve runs the fleet coordinator: a long-running simulation
// service that accepts sweep submissions over the versioned JSON API,
// serves already-computed points straight from its result cache, and
// queues misses onto a work-stealing job queue for elsqworker processes to
// lease. It also hosts the content-addressed artifact store — results by
// job key, warm-up checkpoints by ckpt.Key, traces by .elt content digest
// — that workers fetch from and push to with end-to-end digest
// verification.
//
// Usage:
//
//	elsqserve -addr :7977 -cachedir .fleetcache -ckptdir .fleetckpt \
//	          -tracedir traces/
//
// With -cachedir the result store persists across restarts, so a restarted
// service keeps serving every previously computed point instantly. -lease
// bounds how long a silent worker holds a job before it is re-dispatched;
// -max-attempts bounds re-dispatch of a job that keeps failing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/sweep"
)

func main() {
	addr := flag.String("addr", ":7977", "listen address")
	cacheDir := flag.String("cachedir", "", "persistent result-store directory (empty = in-memory)")
	ckptDir := flag.String("ckptdir", "", "persistent checkpoint-store directory (empty = in-memory)")
	ckptMax := flag.String("ckpt-max-bytes", "2G", "checkpoint store size budget for -ckptdir (K/M/G suffixes; 0 = unbounded)")
	traceDir := flag.String("tracedir", "", "trace-store directory; existing .elt files are served by content digest (empty = in-memory)")
	lease := flag.Duration("lease", fleet.DefaultLeaseTTL, "lease TTL before a silent worker's job is re-dispatched")
	maxAttempts := flag.Int("max-attempts", fleet.DefaultMaxAttempts, "dispatch attempts before a job fails permanently")
	flag.Parse()

	opts := fleet.Options{LeaseTTL: *lease, MaxAttempts: *maxAttempts}
	if *cacheDir != "" {
		cache, err := sweep.NewDiskCache(*cacheDir)
		if err != nil {
			fatalf("%v", err)
		}
		opts.Results = cache.Disk
	}
	if *ckptDir != "" {
		budget, err := config.ParseSize(*ckptMax)
		if err != nil {
			fatalf("bad -ckpt-max-bytes: %v", err)
		}
		if opts.Ckpts, err = ckpt.NewDiskStore(*ckptDir, int64(budget)); err != nil {
			fatalf("%v", err)
		}
	} else {
		opts.Ckpts = ckpt.NewMemStore()
	}
	var traces int
	var err error
	if opts.Traces, traces, err = fleet.OpenTraces(*traceDir); err != nil {
		fatalf("%v", err)
	}

	co := fleet.NewCoordinator(opts)
	srv := fleet.NewServer(co)

	stop := make(chan struct{})
	go srv.ExpireLoop(stop, *lease/4)

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		close(stop)
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		httpSrv.Shutdown(shutCtx)
	}()

	log.Printf("elsqserve: listening on %s (lease %v, %d traces indexed)",
		*addr, *lease, traces)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatalf("%v", err)
	}
	st := co.Stats()
	log.Printf("elsqserve: shut down (%d sweeps, %d completes, %d cache hits, %d expired leases)",
		st.Sweeps, st.Completes, st.CacheHits, st.Expired)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "elsqserve: "+format+"\n", args...)
	os.Exit(2)
}
