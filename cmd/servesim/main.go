// Command servesim is the long-lived what-if service: an HTTP/JSON daemon
// answering single-run, sweep and serving queries from the warm-artifact
// scenario cache. The batch CLIs (bwchar, sweep, whatif) pay the cold cost of
// every configuration they touch and then exit, discarding the topology
// blueprints, compiled schedules and memoized results; servesim keeps them
// hot, so a repeated or near-identical query costs a cache probe instead of
// a simulation.
//
// Endpoints:
//
//	POST /run     {"strategy":"zero3","nodes":2,"layers":16,...}
//	              → the run's JSON summary, byte-identical to the batch CLIs.
//	POST /sweep   {"strategy":"zero2","sizes":"0.7,1.4,max",...}
//	              → a JSON summary array, byte-identical to `sweep -json`;
//	              with ?stream=1, newline-delimited summaries flushed
//	              progressively in sweep order as points complete.
//	POST /serve   {"arrival":"open","rate_per_sec":8,"disaggregated":true,...}
//	              → an inference-serving scenario's latency/goodput summary;
//	              with ?log=1, the per-request NDJSON log instead.
//	GET  /stats   → each cache tier's cap, entries, hits, misses and
//	              evictions — serve.results, topology.blueprints,
//	              train.results, train.schedules — and the concurrency
//	              bound.
//	GET  /healthz → 200 "ok" while serving, 503 "draining" once shutdown
//	              has begun.
//
// Identical in-flight requests coalesce onto one underlying simulation
// (singleflight in the result tier), and concurrently running simulations are
// bounded by -parallel. On SIGTERM/SIGINT the daemon stops accepting
// connections, drains in-flight requests for at most -drain, then exits.
//
// Usage:
//
//	servesim -addr 127.0.0.1:8080 -parallel 8 -cache 512 -drain 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"llmbw/internal/runner"
	"llmbw/internal/serve"
	"llmbw/internal/train"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that never finishes them cannot hold a
// connection until exit. Bodies and responses stay unbounded: a long
// /sweep?stream=1 must not be cut.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer builds the daemon's HTTP server for handler on addr.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "maximum simulations running concurrently; 1 serializes")
	cacheCap := flag.Int("cache", train.DefaultRunCacheCap, "training result cache entry cap (LRU beyond it); <=0 unbounded")
	serveCap := flag.Int("serve-cache", serve.DefaultRunCacheCap, "serving result cache entry cap (LRU beyond it); <=0 unbounded")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain deadline for in-flight requests")
	flag.Parse()

	train.SetRunCacheCap(*cacheCap)
	serve.SetRunCacheCap(*serveCap)
	srv := newServer(runner.ClampParallel(*parallel))
	hs := newHTTPServer(*addr, srv)

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("servesim listening on %s (parallel=%d, cache=%d, serve-cache=%d)\n",
		*addr, srv.parallel, *cacheCap, *serveCap)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		// ListenAndServe only returns on failure to serve.
		fmt.Fprintln(os.Stderr, "servesim:", err)
		os.Exit(1)
	case s := <-sig:
		// Flip /healthz before closing the listener so probes see the drain,
		// then give in-flight requests up to the deadline to finish.
		srv.draining.Store(true)
		fmt.Printf("servesim: %v, draining for up to %v\n", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "servesim: drain deadline exceeded, aborting in-flight requests")
			hs.Close()
			os.Exit(1)
		}
		fmt.Println("servesim: drained, bye")
	}
}
