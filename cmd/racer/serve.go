package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/serve"

	racereplay "repro"
)

// serveReady, when set, receives the bound address once the analysis
// daemon is listening (test hook).
var serveReady func(addr string)

// cmdServe runs the long-running analysis service: an HTTP daemon that
// ingests .rlog uploads, analyzes them on a bounded worker pool, and
// serves verdict reports and metrics — engineered for failure first.
// See docs/SERVICE.md for the API, the persistence layout, and the
// failure-mode contract.
//
// SIGINT/SIGTERM shut the daemon down gracefully: intake stops (new
// uploads answer 503), in-flight jobs drain under -drain, the queued
// backlog stays journaled for the next start, the journal closes, and
// the final span tree is printed. Exit status is 0 — an operator
// stopping the service loses no state.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8844", "listen address for the analysis API")
	dataDir := fs.String("data", "racer-data", "persistent state directory (journal and payloads)")
	jobs := fs.Int("jobs", 0, "analysis workers (0 = GOMAXPROCS); verdicts are identical at any count")
	queueCap := fs.Int("queue", 64, "global ingest queue capacity; a full queue answers 429")
	tenantCap := fs.Int("tenant-queue", 0, "per-tenant queue capacity (0 = queue/4)")
	deadline := fs.Duration("deadline", 2*time.Minute, "per-job analysis deadline; exceeding it quarantines the job")
	drain := fs.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight jobs")
	maxUpload := fs.Int64("max-upload", 64<<20, "largest accepted upload in bytes")
	dbPath := fs.String("db", "", "race database for suppression")
	predict := fs.Bool("predict", false, "add the prediction stage to every job: feasible reorderings classified by replay")
	fs.Parse(args)
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	reg := racereplay.NewMetrics()
	srv, err := serve.New(serve.Config{
		DataDir:        *dataDir,
		Jobs:           *jobs,
		QueueCap:       *queueCap,
		TenantCap:      *tenantCap,
		JobDeadline:    *deadline,
		MaxUploadBytes: *maxUpload,
		DB:             db,
		Predict:        *predict,
		Registry:       reg,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	resumed := srv.Start()
	hsrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := notifyShutdown()
	defer stop()
	done := make(chan error, 1)
	go func() { done <- hsrv.Serve(ln) }()
	fmt.Fprintf(stdout, "analysis service on http://%s (data dir %s, upload at /v1/upload, report at /v1/report, metrics at /metrics)\n",
		ln.Addr(), *dataDir)
	if resumed > 0 {
		fmt.Fprintf(stdout, "resumed %d journaled job(s) from a previous run\n", resumed)
	}
	if serveReady != nil {
		serveReady(ln.Addr().String())
	}
	<-ctx.Done()
	fmt.Fprint(stdout, "interrupted: draining and shutting down\n")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(stdout, "shutdown: %v\n", err)
	}
	hctx, hcancel := context.WithTimeout(context.Background(), time.Second)
	defer hcancel()
	hsrv.Shutdown(hctx)
	<-done
	fmt.Fprint(stdout, spanTree(reg))
	return nil
}
