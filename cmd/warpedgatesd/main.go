// Command warpedgatesd is the long-running simulation service: an HTTP/JSON
// front-end over the experiment runner and the durable report store.
//
//	warpedgatesd -addr :8080 -store /var/lib/warpedgates
//
// Endpoints (see README "Running the service" for request/response shapes):
//
//	POST /v1/jobs          submit a benchmark × technique job
//	GET  /v1/jobs/{id}     poll status; Accept: text/event-stream streams it
//	POST /v1/sweeps        submit a declarative parameter-grid sweep
//	GET  /v1/sweeps/{id}   poll aggregate and per-cell sweep status
//	GET  /v1/reports/{id}  fetch a finished report payload
//	GET  /v1/healthz       liveness (503 while draining)
//	GET  /v1/statusz       queue/job/store counters
//
// On SIGINT/SIGTERM the server drains gracefully: it stops admitting,
// finishes (or after -drain-grace cancels) in-flight jobs, and exits after
// printing the store's health counters. Exit codes: 0 clean shutdown
// (including a forced drain), 1 startup or serve error, 2 flag usage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"warpedgates/internal/config"
	"warpedgates/internal/serve"
	"warpedgates/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "warpedgatesd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	storeDir := flag.String("store", "", "durable report store directory (empty = in-memory caching only)")
	sms := flag.Int("sms", 15, "base machine SM count (requests may override per job)")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = all cores)")
	queue := flag.Int("queue", 64, "admission queue depth; a full queue answers 429")
	quotaRate := flag.Float64("quota-rate", 5, "sustained per-client submissions/second (negative disables quotas)")
	quotaBurst := flag.Int("quota-burst", 10, "per-client submission burst (negative disables quotas)")
	deadline := flag.Duration("deadline", 0, "default per-job deadline (0 = none)")
	maxDeadline := flag.Duration("max-deadline", 30*time.Minute, "the only cap on a job's running time: requested and default deadlines are clamped to it (0 = no cap)")
	maxCached := flag.Int("max-cached", 256, "in-memory reports retained per workload scale (LRU)")
	maxSweepCells := flag.Int("max-sweep-cells", 4096, "largest grid one sweep submission may expand to")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "how long a drain waits for in-flight jobs before canceling them")
	flag.Parse()

	base := config.GTX480()
	base.NumSMs = *sms

	opts := serve.Options{
		Base:             base,
		Workers:          *jobs,
		QueueDepth:       *queue,
		QuotaRate:        *quotaRate,
		QuotaBurst:       *quotaBurst,
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
		MaxCachedReports: *maxCached,
		MaxSweepCells:    *maxSweepCells,
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			return err
		}
		opts.Store = st
		defer func() { log.Printf("store %s: %s", st.Dir(), st.Health()) }()
	}
	srv, err := serve.NewServer(opts)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	resolved := srv.Options()
	log.Printf("serving on %s (store=%q jobs=%d queue=%d)", ln.Addr(), *storeDir, resolved.Workers, resolved.QueueDepth)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, then let queued and
	// running jobs finish (or cancel them once the grace period expires),
	// then shut the HTTP side down so status pollers can watch the drain.
	log.Printf("signal received; draining (grace %s)", *drainGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("drain forced: canceled in-flight jobs after %s", *drainGrace)
	} else {
		log.Printf("drained cleanly")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
