// Command winrs-serve runs the WinRS gradient-compute daemon: an HTTP
// service that executes backward-filter (and forward / backward-data)
// convolutions through a shared plan cache with pooled workspaces and a
// bounded worker pool.
//
// Usage:
//
//	winrs-serve -addr :8780 -workers 8 -queue 64 -deadline 30s -cache 256
//	winrs-serve -algo auto                # cost-model dispatch by default
//	winrs-serve -force-algo winrs         # pin the paper's algorithm
//	winrs-serve -dispatch-measure=false   # prediction-only "auto"
//
// Endpoints: POST /v1/backward_filter, /v1/forward, /v1/backward_data
// (framed request bodies, see internal/serve's wire format), GET /healthz
// and GET /metrics. With -pprof the Go profiling handlers are mounted
// under /debug/pprof/, and -trace enables per-stage execution tracing
// (segment-tile / transform / EWM / reduce histograms on /metrics).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"winrs/internal/obs"
	"winrs/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8780", "listen address")
		workers  = flag.Int("workers", 0, "concurrent compute workers (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "max queued requests before 429 rejection")
		deadline = flag.Duration("deadline", 30*time.Second, "per-request queue+compute deadline")
		cache    = flag.Int("cache", 256, "plan cache capacity (plans)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget before in-flight computes are cancelled")
		maxBody  = flag.Int64("maxbody", 1<<30, "max request body bytes")
		enPprof  = flag.Bool("pprof", false, "mount /debug/pprof/ profiling handlers")
		enTrace  = flag.Bool("trace", false, "record per-stage execution timings (exported on /metrics)")
		algo     = flag.String("algo", "", `backward-filter algorithm when the request omits "algo": "" or "winrs" (default), "auto" for cost-model dispatch, or a backend name (gemm, direct, fft, winnf)`)
		forceAlg = flag.String("force-algo", "", "override the algorithm of EVERY backward-filter request, including explicit headers (\"winrs\" disables dispatch entirely)")
		measure  = flag.Bool("dispatch-measure", true, `refine "auto" dispatch with a bounded one-shot measurement of the top-2 predicted backends (once per plan-cache miss)`)
	)
	flag.Parse()
	obs.EnableTrace(*enTrace)

	srv := serve.NewServer(serve.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		Deadline:           *deadline,
		CacheCapacity:      *cache,
		MaxBodyBytes:       *maxBody,
		DefaultAlgo:        *algo,
		ForceAlgo:          *forceAlg,
		DispatchMeasureOff: !*measure,
	})
	defer srv.Close()

	handler := srv.Handler()
	if *enPprof {
		// Wrap the service mux rather than registering into it: the pprof
		// handlers live on their own mux so the service routes stay closed.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "winrs-serve: %v\n", err)
		os.Exit(1)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("winrs-serve listening on %s (workers=%d queue=%d deadline=%s cache=%d algo=%q force-algo=%q)",
		ln.Addr(), *workers, *queue, *deadline, *cache, *algo, *forceAlg)

	select {
	case <-ctx.Done():
		log.Printf("winrs-serve: shutting down (grace %s)", *drain)
		// Two-phase drain: first let in-flight requests finish on their
		// own within the grace budget; past it, srv.Close cancels their
		// computes cooperatively (they abort before their next unit and
		// answer 503), so the drain is bounded by one unit's work rather
		// than by the slowest request.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("winrs-serve: grace budget expired (%v); cancelling in-flight computes", err)
			srv.Close()
			finalCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel2()
			if err := hs.Shutdown(finalCtx); err != nil {
				log.Printf("winrs-serve: forced shutdown: %v", err)
				hs.Close()
			}
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "winrs-serve: %v\n", err)
			os.Exit(1)
		}
	}
}
