package serve

import (
	"time"

	"winrs/internal/backend"
	"winrs/internal/obs"
)

// Stats aggregates the serving counters exposed on /metrics. The series
// live in the server's obs.Registry, so /metrics rendering, quantiles and
// idempotent registration are the registry's job; this struct only keeps
// the typed handles the hot path updates. All updates are lock-free
// atomics; reads are approximate snapshots, which is all a metrics
// endpoint needs.
type Stats struct {
	OK         [numOps]*obs.Counter // completed requests per op
	ClientErr  *obs.Counter         // malformed requests (4xx)
	ComputeErr *obs.Counter         // plan/compute failures (422)
	Rejected   *obs.Counter         // admission-control rejections (429)
	Deadline   *obs.Counter         // deadline expired, queued or mid-compute (503)
	Cancelled  *obs.Counter         // client gone (disconnect): nothing written
	Panics     *obs.Counter         // recovered compute panics (500)
	WriteErr   *obs.Counter         // response-write failures after commit

	// Dispatch counts completed backward-filter executions per backend
	// (winrs_dispatch_total{backend=...}); all five series are
	// pre-registered so /metrics shows zeros before any dispatch.
	Dispatch map[string]*obs.Counter

	hist *obs.Histogram
}

// newStats registers the serving series into reg and returns the handles.
func newStats(reg *obs.Registry) *Stats {
	s := &Stats{
		ClientErr:  reg.Counter("winrs_client_errors_total", "Malformed requests (4xx)."),
		ComputeErr: reg.Counter("winrs_compute_errors_total", "Plan or compute failures (422)."),
		Rejected:   reg.Counter("winrs_rejected_total", "Admission-control rejections (429)."),
		Deadline:   reg.Counter("winrs_deadline_total", "Requests whose deadline expired, queued or mid-compute (503)."),
		Cancelled:  reg.Counter("winrs_cancelled_total", "Requests abandoned because the client disconnected."),
		Panics:     reg.Counter("winrs_panics_total", "Compute panics recovered by the dispatcher (500)."),
		WriteErr:   reg.Counter("winrs_write_errors_total", "Response writes that failed after the response was committed."),
		hist: reg.Histogram("winrs_request_latency_seconds",
			"Completed request latency (queue + compute).",
			[]float64{0.5, 0.9, 0.99}),
	}
	for op := Op(0); op < numOps; op++ {
		s.OK[op] = reg.Counter("winrs_requests_total",
			"Completed requests per operation.", obs.Label{Key: "op", Value: op.String()})
	}
	s.Dispatch = make(map[string]*obs.Counter)
	for _, name := range backend.Default().Names() {
		s.Dispatch[name] = reg.Counter("winrs_dispatch_total",
			"Backward-filter executions per backend.",
			obs.Label{Key: "backend", Value: name})
	}
	return s
}

// DispatchTo counts one backward-filter execution on the named backend.
func (s *Stats) DispatchTo(name string) {
	if c, ok := s.Dispatch[name]; ok {
		c.Add(1)
	}
}

// Observe records one successful request.
func (s *Stats) Observe(op Op, d time.Duration) {
	s.OK[op].Add(1)
	s.hist.Observe(d)
}
