// Command kremlin-serve runs the Kremlin profiling daemon: POST a Kr
// program to /profile and receive its parallelism profile, ranked plan,
// and static vet report as an NDJSON stream.
//
// Usage:
//
//	kremlin-serve [-addr :8080] [-workers N] [-queue N] [-job-timeout d]
//	              [-max-insns N] [-max-pages N] [-max-heap-words N]
//	              [-rate R] [-burst N] [-job-cache N]
//	              [-compile-cache N] [-inccache-dir path] [-inccache-max N]
//
// The daemon sheds load with 429 when the queue is full, rate-limits
// per tenant (X-Kremlin-Tenant header) when -rate is set, and drains
// gracefully on SIGINT/SIGTERM: in-flight and queued jobs finish, new
// submissions get 503, then the process exits. See docs/serve.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kremlin"
	"kremlin/internal/inccache"
	"kremlin/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", serve.DefaultWorkers, "worker pool size (concurrent jobs)")
	queue := flag.Int("queue", serve.DefaultQueueDepth, "admission queue depth (beyond it: 429)")
	jobTimeout := flag.Duration("job-timeout", serve.DefaultJobTimeout, "per-job wall-clock deadline")
	maxInsns := flag.Uint64("max-insns", serve.DefaultMaxInsns, "per-job instruction budget")
	maxPages := flag.Int("max-pages", serve.DefaultMaxPages, "per-job shadow-memory page cap")
	maxHeap := flag.Uint64("max-heap-words", serve.DefaultMaxHeap, "per-job simulated-heap cap (8-byte words)")
	rate := flag.Float64("rate", 0, "per-tenant jobs/sec (0 = no rate limiting)")
	burst := flag.Int("burst", 0, "per-tenant burst (default 2x rate)")
	jobCache := flag.Int("job-cache", 256, "memoize up to N successful jobs by content hash (0 = off)")
	compileCache := flag.Int("compile-cache", 256, "memoize up to N compiled programs by content hash (0 = off)")
	incDir := flag.String("inccache-dir", "", "shared incremental re-profiling cache directory (empty = off; tenants get isolated keyspaces)")
	incMax := flag.Int("inccache-max", 1<<16, "record bound for the shared inccache (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight jobs on shutdown")
	engine := flag.String("engine", "vm", "per-job execution engine: vm (block-batched bytecode) or tree (reference interpreter)")
	noLint := flag.Bool("no-lint", false, "disable the lint admission gate (provably-faulting programs execute instead of being rejected)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: kremlin-serve [flags]")
		os.Exit(2)
	}
	eng, err := kremlin.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kremlin-serve: %v\n", err)
		os.Exit(2)
	}
	var incStore *inccache.Store
	if *incDir != "" {
		incStore, err = inccache.Open(*incDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kremlin-serve: inccache: %v\n", err)
			os.Exit(1)
		}
		incStore.SetMaxRecords(*incMax)
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		JobTimeout:     *jobTimeout,
		MaxInsns:       *maxInsns,
		MaxShadowPages: *maxPages,
		MaxHeapWords:   *maxHeap,
		RatePerSec:     *rate,
		RateBurst:      *burst,
		Engine:         eng,
		JobCache:       *jobCache,
		CompileCache:   *compileCache,
		IncCache:       incStore,
		DisableLint:    *noLint,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "kremlin-serve: listening on %s (%d workers, queue %d)\n",
		*addr, *workers, *queue)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "kremlin-serve:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "kremlin-serve: %s, draining\n", sig)
	}

	// Graceful drain: stop admission, finish queued + in-flight jobs,
	// then stop the HTTP listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "kremlin-serve: drain:", err)
		_ = httpSrv.Close()
		os.Exit(1)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "kremlin-serve: shutdown:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "kremlin-serve: drained cleanly")
}
