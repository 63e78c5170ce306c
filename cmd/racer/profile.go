package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	racereplay "repro"
)

// profileReady, when set, receives the bound address once the profile
// server is listening (test hook).
var profileReady func(addr string)

// cmdProfile runs the suite in a loop while serving live metrics and Go
// profiling data over HTTP — the operational mode for watching the
// pipeline under load:
//
//	/metrics        Prometheus exposition format
//	/metrics.json   the same snapshot as JSON
//	/trace          the flight-recorder timeline as Chrome trace JSON
//	/debug/pprof/   the standard Go profiler endpoints
//
// With -hold the server stays up after the iterations finish, so an
// external scraper (or a browser) can inspect the final state.
//
// SIGINT/SIGTERM shut the command down gracefully at any point: the
// loop stops after the in-flight operation, the final span tree (and
// -trace-out timeline, if requested) is still written, the server
// drains, and the exit status is 0 — an operator stopping the process
// loses no observability data.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address for metrics + pprof")
	seeds := fs.Int("seeds", 1, "scheduler seeds per scenario per iteration")
	iterations := fs.Int("iterations", 1, "suite iterations to run")
	hold := fs.Duration("hold", 0, "keep serving this long after the last iteration")
	traceOut := fs.String("trace-out", "",
		"also write the final timeline as Chrome trace JSON to this file on exit")
	fs.Parse(args)

	ctx, stop := notifyShutdown()
	defer stop()

	reg := racereplay.NewMetrics()
	reg.EnableTimeline(0)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, reg.Snapshot().Prometheus())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, reg.Snapshot().JSON())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="racer-trace.json"`)
		reg.Timeline().WriteTrace(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "profiling server on http://%s (metrics at /metrics, timeline at /trace, pprof at /debug/pprof/)\n",
		ln.Addr())
	if profileReady != nil {
		profileReady(ln.Addr().String())
	}

	interrupted := false
	for i := 0; i < *iterations && !interrupted; i++ {
		if _, err := racereplay.RunSuite(racereplay.SuiteOptions{Seeds: *seeds, Registry: reg}); err != nil {
			srv.Close()
			return err
		}
		fmt.Fprintf(stdout, "iteration %d/%d done\n", i+1, *iterations)
		if ctx.Err() != nil {
			interrupted = true
		}
	}
	if interrupted {
		fmt.Fprint(stdout, "interrupted: flushing and shutting down\n")
	}
	fmt.Fprint(stdout, spanTree(reg))
	if *traceOut != "" {
		if err := writeTraceFile(reg, *traceOut); err != nil {
			return err
		}
	}
	if *hold > 0 && !interrupted {
		fmt.Fprintf(stdout, "holding for %v...\n", *hold)
		select {
		case <-time.After(*hold):
		case <-ctx.Done():
			fmt.Fprint(stdout, "interrupted: shutting down\n")
		}
	}
	sctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	srv.Shutdown(sctx)
	<-done
	return nil
}
