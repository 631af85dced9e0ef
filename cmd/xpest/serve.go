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

	"xpathest/internal/guard"
	"xpathest/internal/server"
)

// cmdServe runs the hardened HTTP estimation service. See
// docs/OPERATIONS.md for the endpoint API, limit tuning and the
// degradation/shutdown contract.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8321", "listen address")
	dir := fs.String("summaries", "", "directory of *.xpsum files to serve (scanned at startup and on POST /reload)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	inflight := fs.Int("max-inflight", 64, "max concurrently-served requests (excess sheds with 503)")
	fallback := fs.Float64("fallback", 1.0, "estimate served (confidence low) for missing/corrupt summaries")

	def := guard.DefaultLimits()
	depth := fs.Int("max-depth", def.MaxDepth, "max XML nesting depth per document (0 = unlimited)")
	elements := fs.Int("max-elements", def.MaxElements, "max element count per document (0 = unlimited)")
	docBytes := fs.Int64("max-doc-bytes", def.MaxDocumentBytes, "max XML document bytes (0 = unlimited)")
	sumBytes := fs.Int64("max-summary-bytes", def.MaxSummaryBytes, "max summary stream bytes (0 = unlimited)")
	queryLen := fs.Int("max-query-len", def.MaxQueryLen, "max query length in bytes (0 = unlimited)")
	batchQueries := fs.Int("max-batch-queries", def.MaxBatchQueries, "max queries per /estimate/batch request (0 = unlimited)")
	resultCache := fs.Int64("result-cache-bytes", 4<<20, "byte budget for the estimate result cache, keyed by summary and query (negative = disabled)")

	readRetries := fs.Int("store-read-retries", 2, "extra summary read attempts before a load fails")
	backoffBase := fs.Duration("store-backoff", 5*time.Millisecond, "base delay between summary read retries (doubles per attempt, jittered)")
	backoffMax := fs.Duration("store-backoff-max", 100*time.Millisecond, "cap on the summary read retry delay")
	quarantineAfter := fs.Int("quarantine-after", 3, "consecutive corrupt loads before a summary file is pulled from rotation (negative = never)")
	breakerThreshold := fs.Int("breaker-threshold", 3, "consecutive failed reloads before a summary's circuit breaker opens")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "wait before an open breaker allows a half-open probe (0 = probe every reload)")
	startupRetries := fs.Int("startup-retries", 2, "extra attempts when the startup summary scan fails")
	startupBackoff := fs.Duration("startup-backoff", 200*time.Millisecond, "delay before the first startup scan retry (doubles per attempt)")
	fs.Parse(args)

	if *dir != "" {
		if st, err := os.Stat(*dir); err != nil || !st.IsDir() {
			return fmt.Errorf("serve: -summaries %q is not a directory", *dir)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := server.New(ctx, server.Config{
		Addr: *addr,
		Limits: guard.Limits{
			MaxDepth:         *depth,
			MaxElements:      *elements,
			MaxDocumentBytes: *docBytes,
			MaxSummaryBytes:  *sumBytes,
			MaxQueryLen:      *queryLen,
			MaxBatchQueries:  *batchQueries,
		},
		ResultCacheBytes: *resultCache,
		RequestTimeout:   *timeout,
		DrainTimeout:     *drain,
		MaxInFlight:      *inflight,
		SummaryDir:       *dir,
		FallbackEstimate: *fallback,
		StoreReadRetries: *readRetries,
		StoreBackoffBase: *backoffBase,
		StoreBackoffMax:  *backoffMax,
		QuarantineAfter:  *quarantineAfter,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		StartupRetries:   *startupRetries,
		StartupBackoff:   *startupBackoff,
		Logger:           log.New(os.Stderr, "xpest: ", log.LstdFlags),
	})
	if err != nil {
		return err
	}
	return srv.Run(ctx)
}
