package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sync"
	"time"

	"winrs/internal/backend"
	"winrs/internal/core"
	"winrs/internal/fp16"
	"winrs/internal/obs"
	"winrs/internal/tensor"
)

// Config sizes the server. Zero values select the defaults.
type Config struct {
	// Workers is the number of requests computed concurrently
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth is how many admitted requests may wait for a worker
	// before further requests are rejected with 429 (default 64;
	// negative means 0 — admit only onto a free worker).
	QueueDepth int
	// Deadline bounds one request's queue + compute time (default 30s).
	Deadline time.Duration
	// CacheCapacity is the plan-cache size in plans (default 256).
	CacheCapacity int
	// MaxBodyBytes caps the request body (default 1 GiB).
	MaxBodyBytes int64
	// DefaultAlgo is the backward-filter algorithm used when a request's
	// header omits "algo": "" or "winrs" (default), "auto" for
	// cost-model dispatch, or an explicit backend name.
	DefaultAlgo string
	// ForceAlgo, when non-empty, overrides the algo of every
	// backward-filter request, including explicit headers: "winrs" pins
	// the paper's algorithm (disabling dispatch entirely), "auto" forces
	// dispatch for all traffic.
	ForceAlgo string
	// DispatchMeasureOff disables the one-shot measurement refinement of
	// "auto" dispatch, leaving the cost-model prediction alone to decide.
	DispatchMeasureOff bool
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 30
	}
}

// Server is the winrs-serve HTTP service: the runtime (plan cache +
// workspace pools) behind a bounded dispatcher, plus the stats surface.
type Server struct {
	cfg   Config
	rt    *Runtime
	disp  *Dispatcher
	reg   *obs.Registry
	stats *Stats
	start time.Time

	// closing is cancelled by Close before the dispatcher drains; every
	// in-flight request's context is derived from it, so shutdown is
	// bounded by cooperative cancellation instead of the slowest compute.
	closing     context.Context
	cancelClose context.CancelFunc
}

// NewServer builds a server; call Close to drain its workers.
func NewServer(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:   cfg,
		rt:    NewRuntime(cfg.CacheCapacity),
		disp:  NewDispatcher(cfg.Workers, cfg.QueueDepth),
		reg:   obs.NewRegistry(),
		start: time.Now(),
	}
	s.closing, s.cancelClose = context.WithCancel(context.Background())
	if cfg.DispatchMeasureOff {
		s.rt.cache.SetDispatchOptions(backend.Options{Measure: false})
	}
	s.stats = newStats(s.reg)
	s.reg.GaugeFunc("winrs_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.CounterFunc("winrs_plan_cache_hits_total", "Plan-cache hits.",
		s.rt.cache.Hits)
	s.reg.CounterFunc("winrs_plan_cache_misses_total", "Plan-cache misses.",
		s.rt.cache.Misses)
	s.reg.GaugeFunc("winrs_plan_cache_entries", "Plans currently cached.",
		func() float64 { return float64(s.rt.cache.Len()) })
	s.reg.GaugeFunc("winrs_queue_depth", "Admitted requests waiting for a worker.",
		func() float64 { return float64(s.disp.QueueDepth()) })
	s.reg.GaugeFunc("winrs_requests_in_flight", "Requests currently computing.",
		func() float64 { return float64(s.disp.InFlight()) })
	return s
}

// Registry exposes the server's metric registry (embedding, extra series).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Runtime exposes the server's runtime (tests, embedding).
func (s *Server) Runtime() *Runtime { return s.rt }

// Close drains the worker pool. In-flight computes are cancelled
// cooperatively (they abort before their next unit and their requests
// answer 503), so the drain is bounded by one unit's work rather than by
// the slowest request; new submissions get 503.
func (s *Server) Close() {
	s.cancelClose()
	s.disp.Close()
}

// Handler returns the HTTP mux:
//
//	POST /v1/backward_filter   ∇W from X, ∇Y (f32 or f16 payloads)
//	POST /v1/forward           Y from X, W
//	POST /v1/backward_data     ∇X from ∇Y, W
//	GET  /healthz              liveness JSON
//	GET  /metrics              Prometheus-style text metrics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/backward_filter", s.opHandler(OpBackwardFilter))
	mux.HandleFunc("POST /v1/forward", s.opHandler(OpForward))
	mux.HandleFunc("POST /v1/backward_data", s.opHandler(OpBackwardData))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) opHandler(op Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { s.serveOp(op, w, r) }
}

// clientError replies with status and counts the request as malformed.
func (s *Server) clientError(w http.ResponseWriter, status int, format string, args ...any) {
	s.stats.ClientErr.Add(1)
	http.Error(w, fmt.Sprintf(format, args...), status)
}

// serveOp drives one request through the full lifecycle: decode +
// validate (admission), dispatcher queue, compute, response. Every
// outcome maps to exactly one status and one stats counter, and nothing
// is written after the response has been committed.
func (s *Server) serveOp(op Op, w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	hdr, payload, err := DecodeRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.clientError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", tooBig.Limit)
			return
		}
		s.clientError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if hdr.Op != "" {
		if declared, err := ParseOp(hdr.Op); err != nil || declared != op {
			s.clientError(w, http.StatusBadRequest, "header op %q does not match endpoint %q", hdr.Op, op)
			return
		}
	}
	p := hdr.Params
	if err := p.Validate(); err != nil {
		s.clientError(w, http.StatusBadRequest, "%v", err)
		return
	}
	esz := hdr.DType.elemBytes()
	if esz == 0 {
		s.clientError(w, http.StatusBadRequest, "unknown dtype %q", hdr.DType)
		return
	}
	if hdr.DType == F16 && op != OpBackwardFilter {
		s.clientError(w, http.StatusBadRequest, "dtype f16 is only supported for backward_filter")
		return
	}
	aShape, bShape, _ := OperandShapes(op, p)
	if want := (aShape.Elems() + bShape.Elems()) * esz; len(payload) != want {
		s.clientError(w, http.StatusBadRequest,
			"payload %d bytes, want %d (%v + %v × %d-byte elements)",
			len(payload), want, aShape, bShape, esz)
		return
	}
	aBytes := payload[:aShape.Elems()*esz]
	bBytes := payload[aShape.Elems()*esz:]
	if hdr.Algo != "" && op != OpBackwardFilter {
		s.clientError(w, http.StatusBadRequest, "algo is only supported for backward_filter")
		return
	}
	algo, err := s.resolveAlgo(op, hdr.Algo)
	if err != nil {
		s.clientError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Zero already selects the adaptive Z and the default hardware model;
	// a negative value would configure the same plan under a distinct
	// cache key, so a client cycling them could evict every hot plan.
	if hdr.Segments < 0 || hdr.NSM < 0 {
		s.clientError(w, http.StatusBadRequest,
			"segments (%d) and nsm (%d) must be non-negative", hdr.Segments, hdr.NSM)
		return
	}
	key := PlanKey{Params: p, FP16: hdr.DType == F16, NSM: hdr.NSM, Segments: hdr.Segments, Algo: algo}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Deadline)
	defer cancel()
	// Server shutdown cancels every in-flight request, bounding the drain.
	stopClose := context.AfterFunc(s.closing, cancel)
	defer stopClose()

	// The job runs on a dispatcher worker; Do blocks until it finishes (or
	// it is abandoned while still queued, in which case it never runs), so
	// writing the response from the job is race-free. ctx reaches the
	// compute through the dispatcher, aborting it before its next unit on
	// deadline expiry, client disconnect or server shutdown.
	rw := &commitTracker{ResponseWriter: w}
	var jobErr error
	err = s.disp.Do(ctx, func(jctx context.Context) {
		jobErr = s.compute(jctx, op, key, hdr.DType, aBytes, bBytes, rw)
	})
	switch {
	case errors.Is(err, ErrOverloaded):
		s.stats.Rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "queue full, retry later", http.StatusTooManyRequests)
	case errors.Is(err, ErrPanic):
		// The worker recovered and survives; this request answers 500.
		var pe *PanicError
		errors.As(err, &pe)
		s.stats.Panics.Add(1)
		log.Printf("serve: panic in %s compute: %v\n%s", op, pe.Val, pe.Stack)
		if !rw.committed {
			http.Error(w, "internal error during compute", http.StatusInternalServerError)
		}
	case errors.Is(err, context.Canceled):
		s.cancelledWhile(op, "queued", r, w)
	case errors.Is(err, context.DeadlineExceeded):
		s.stats.Deadline.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "deadline expired while queued", http.StatusServiceUnavailable)
	case err != nil: // ErrClosed
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	case jobErr != nil:
		s.jobError(op, jobErr, rw, r, w)
	default:
		s.stats.Observe(op, time.Since(t0))
	}
}

// resolveAlgo folds the request's algo with the server's default/force
// configuration and normalizes it into a plan-key Algo: the precedence is
// ForceAlgo > header > DefaultAlgo, "winrs" canonicalizes to "" (so
// explicit-WinRS requests share cache entries with default ones), and an
// unknown name is a client error. Non-BFC ops always resolve to "".
func (s *Server) resolveAlgo(op Op, hdrAlgo string) (string, error) {
	if op != OpBackwardFilter {
		return "", nil
	}
	algo := hdrAlgo
	if algo == "" {
		algo = s.cfg.DefaultAlgo
	}
	if s.cfg.ForceAlgo != "" {
		algo = s.cfg.ForceAlgo
	}
	switch algo {
	case "", "winrs":
		return "", nil
	case "auto":
		return "auto", nil
	}
	if _, ok := backend.Default().Get(algo); !ok {
		return "", fmt.Errorf("unknown algo %q (want \"auto\" or one of %v)",
			algo, backend.Default().Names())
	}
	return algo, nil
}

// cancelledWhile handles a context.Canceled outcome, which has two
// sources: the client disconnected (its request context is done — nobody
// is listening, so log + count and write nothing) or the server is
// shutting down (answer 503 so a still-connected client retries
// elsewhere).
func (s *Server) cancelledWhile(op Op, phase string, r *http.Request, w http.ResponseWriter) {
	if r.Context().Err() != nil {
		s.stats.Cancelled.Add(1)
		log.Printf("serve: %s request abandoned while %s: client disconnected", op, phase)
		return
	}
	w.Header().Set("Retry-After", "1")
	http.Error(w, "server shutting down", http.StatusServiceUnavailable)
}

// jobError maps a non-nil compute return to status + counter. The
// committed flag decides whether an error status can still be sent: once
// the response body has started, a failure can only be logged and counted
// (an http.Error there would be a superfluous WriteHeader on a broken
// connection).
func (s *Server) jobError(op Op, jobErr error, rw *commitTracker, r *http.Request, w http.ResponseWriter) {
	switch {
	case rw.committed:
		// The only way to fail after commit is the response write itself
		// (compute writes nothing until it has a result).
		s.stats.WriteErr.Add(1)
		log.Printf("serve: %s response write failed mid-body: %v", op, jobErr)
	case errors.Is(jobErr, context.Canceled):
		// The execution was cancelled cooperatively mid-compute.
		s.cancelledWhile(op, "computing", r, w)
	case errors.Is(jobErr, context.DeadlineExceeded):
		s.stats.Deadline.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "deadline expired during compute", http.StatusServiceUnavailable)
	default:
		// Plan construction / compute rejected the geometry.
		s.stats.ComputeErr.Add(1)
		http.Error(w, jobErr.Error(), http.StatusUnprocessableEntity)
	}
}

// commitTracker records whether the response has been committed (status
// line sent or body started). It is written by the dispatcher worker and
// read by the handler after Do returns; Do's completion edge orders the
// two, so no further synchronization is needed.
type commitTracker struct {
	http.ResponseWriter
	committed bool
}

func (c *commitTracker) WriteHeader(code int) {
	c.committed = true
	c.ResponseWriter.WriteHeader(code)
}

func (c *commitTracker) Write(p []byte) (int, error) {
	c.committed = true
	return c.ResponseWriter.Write(p)
}

// Operand ingest pools: request-decode buffers reused across requests so
// a steady stream of backward-filter calls stops allocating two operand
// tensors per request. The buffers go back to the pool on every normal
// return — the execution paths are synchronous and leave the operands
// quiescent even on cancellation (arenas drained before return) — and are
// deliberately dropped on panic, the workspace-pool convention.
var (
	halfOperandPool = sync.Pool{New: func() any { return new([]fp16.Bits) }}
	f32OperandPool  = sync.Pool{New: func() any { return new([]float32) }}
)

// getOperand takes a buffer from pool, sized to shape's element count.
// Contents are stale until the decode fills every element.
func getOperand[T any](pool *sync.Pool, shape tensor.Shape) *[]T {
	bp := pool.Get().(*[]T)
	if n := shape.Elems(); cap(*bp) < n {
		*bp = make([]T, n)
	} else {
		*bp = (*bp)[:n]
	}
	return bp
}

// compute decodes the operands, executes the pass and, on success, writes
// the response. It never writes before it has a result, so serveOp can
// still set an error status on every pre-write failure. The backward-
// filter paths check ctx before each unit and abort with ctx.Err();
// forward and backward-data check it at the boundaries only (their
// computes are not yet cancellation-aware).
func (s *Server) compute(ctx context.Context, op Op, key PlanKey, dt DType, aBytes, bBytes []byte, w http.ResponseWriter) error {
	p := key.Params
	switch op {
	case OpBackwardFilter:
		write := func(dw *tensor.Float32, e *Entry, hit bool) error {
			s.stats.DispatchTo(e.Backend)
			return writeResult(w, dw, e, hit)
		}
		if dt == F16 {
			xb := getOperand[fp16.Bits](&halfOperandPool, p.XShape())
			dyb := getOperand[fp16.Bits](&halfOperandPool, p.DYShape())
			err := DecodeF16(aBytes, *xb)
			if err == nil {
				err = DecodeF16(bBytes, *dyb)
			}
			if err == nil {
				err = s.rt.BackwardFilterHalfPooledCtx(ctx, key,
					&tensor.Half{Shape: p.XShape(), Data: *xb},
					&tensor.Half{Shape: p.DYShape(), Data: *dyb}, write)
			}
			halfOperandPool.Put(xb)
			halfOperandPool.Put(dyb)
			return err
		}
		xb := getOperand[float32](&f32OperandPool, p.XShape())
		dyb := getOperand[float32](&f32OperandPool, p.DYShape())
		err := DecodeF32(aBytes, *xb)
		if err == nil {
			err = DecodeF32(bBytes, *dyb)
		}
		if err == nil {
			err = s.rt.BackwardFilterPooledCtx(ctx, key,
				&tensor.Float32{Shape: p.XShape(), Data: *xb},
				&tensor.Float32{Shape: p.DYShape(), Data: *dyb}, write)
		}
		f32OperandPool.Put(xb)
		f32OperandPool.Put(dyb)
		return err
	case OpForward:
		x, wt := tensor.NewFloat32(p.XShape()), tensor.NewFloat32(p.DWShape())
		if err := DecodeF32(aBytes, x.Data); err != nil {
			return err
		}
		if err := DecodeF32(bBytes, wt.Data); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		y, err := core.Forward(p, x, wt)
		if err != nil {
			return err
		}
		return writeResult(w, y, nil, false)
	case OpBackwardData:
		dy, wt := tensor.NewFloat32(p.DYShape()), tensor.NewFloat32(p.DWShape())
		if err := DecodeF32(aBytes, dy.Data); err != nil {
			return err
		}
		if err := DecodeF32(bBytes, wt.Data); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		dx, err := core.BackwardData(p, dy, wt)
		if err != nil {
			return err
		}
		return writeResult(w, dx, nil, false)
	}
	return fmt.Errorf("serve: invalid op %v", op)
}

// writeResult sends t as raw little-endian float32 with metadata headers.
// The cache/backend headers are only meaningful for the plan-cached ops,
// which pass their entry; forward/backward_data pass nil. The kernel-pair
// and segment headers appear only on WinRS-executed results (other
// backends have no adapted WinRS plan).
func writeResult(w http.ResponseWriter, t *tensor.Float32, e *Entry, hit bool) error {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Winrs-Shape", t.Shape.String())
	h.Set("Content-Length", fmt.Sprint(4*len(t.Data)))
	if e != nil {
		h.Set("X-Winrs-Backend", e.Backend)
		if e.Cfg != nil {
			h.Set("X-Winrs-Kernel-Pair", e.Cfg.Pair.String())
			h.Set("X-Winrs-Segments", fmt.Sprint(e.Cfg.Z()))
		}
		if hit {
			h.Set("X-Winrs-Cache", "hit")
		} else {
			h.Set("X-Winrs-Cache", "miss")
		}
	}
	_, err := w.Write(AppendF32(make([]byte, 0, 4*len(t.Data)), t.Data))
	return err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.rt.cache.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"plans_cached":   s.rt.cache.Len(),
		"cache_hits":     hits,
		"cache_misses":   misses,
		"queue_depth":    s.disp.QueueDepth(),
		"in_flight":      s.disp.InFlight(),
	})
}

// handleMetrics renders the server registry, the process-wide default
// registry (runtime gauges plus anything components registered globally),
// and the per-stage execution trace when obs tracing is enabled.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WriteText(w); err != nil {
		return
	}
	if err := obs.Default.WriteText(w); err != nil {
		return
	}
	obs.WriteTraceTo(w)
}
