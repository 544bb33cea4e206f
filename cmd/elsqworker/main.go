// Command elsqworker leases simulation jobs from an elsqserve coordinator
// and runs them through the unchanged local sweep engine. It heartbeats
// every lease while the simulation runs (abandoning the run promptly if
// the coordinator revokes it), fetches missing trace artifacts by content
// digest with end-to-end verification, shares warm-up checkpoints through
// the coordinator's store, and uploads results with capped exponential
// backoff on transient failures.
//
// Usage:
//
//	elsqworker -coordinator http://host:7977
//	elsqworker -coordinator http://host:7977 -name rack3-7 -tracedir .traces
//
// Run one process per machine (each job already saturates one core per
// lease; start several workers to use several cores). Workers are
// stateless: killing one mid-job only delays that job until its lease
// expires and another worker steals it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fleet"
)

func main() {
	coord := flag.String("coordinator", "http://localhost:7977", "coordinator base URL")
	name := flag.String("name", "", "worker name in coordinator logs (default host-pid)")
	poll := flag.Duration("poll", 250*time.Millisecond, "idle re-poll interval when the queue is empty")
	traceDir := flag.String("tracedir", "", "directory for traces fetched by digest (empty = temporary)")
	ckptDir := flag.String("ckptdir", "", "local persistent checkpoint cache layered over the coordinator's store (empty = in-memory)")
	flag.Parse()

	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	client := fleet.NewClient(*coord)
	var local ckpt.Store = ckpt.NewMemStore()
	if *ckptDir != "" {
		var err error
		if local, err = ckpt.NewDiskStore(*ckptDir, 0); err != nil {
			fatalf("%v", err)
		}
	}
	w := &fleet.Worker{
		Client:   client,
		Name:     *name,
		Ckpts:    local,
		TraceDir: *traceDir,
		Poll:     *poll,
		OnEvent:  func(s string) { log.Print(s) },
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	log.Printf("elsqworker %s: leasing from %s", *name, *coord)
	w.Run(ctx)
	st := client.Stats()
	log.Printf("elsqworker %s: stopped (%d requests, %d retries, %d digest mismatches)",
		*name, st.Requests, st.Retries, st.DigestMismatches)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "elsqworker: "+format+"\n", args...)
	os.Exit(2)
}
