package backend

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"winrs/internal/conv"
	"winrs/internal/tensor"
)

// Candidate is one eligible backend's dispatch score.
type Candidate struct {
	// Name is the backend identifier.
	Name string `json:"name"`
	// WorkspaceBytes is the backend's scratch for this geometry.
	WorkspaceBytes int64 `json:"workspace_bytes"`
	// PredictedNs is the cost model's wall-time estimate.
	PredictedNs float64 `json:"predicted_ns"`
	// MeasuredNs is the one-shot refinement measurement; 0 when the
	// candidate was not measured.
	MeasuredNs float64 `json:"measured_ns,omitempty"`
}

// Decision is a completed dispatch: the chosen backend plus the scored
// candidate list (sorted by predicted time) that produced it. It is
// memoized alongside the plan in the serve cache and recorded per grid
// row in the bench JSON.
type Decision struct {
	// Backend is the chosen backend name.
	Backend string `json:"backend"`
	// Measured reports whether the choice was refined by measurement.
	Measured bool `json:"measured"`
	// Candidates lists every eligible backend, best-predicted first.
	Candidates []Candidate `json:"candidates"`
}

// Options tunes Dispatch.
type Options struct {
	// Procs is the worker count the prediction assumes; ≤0 means the
	// current GOMAXPROCS.
	Procs int
	// Measure enables the one-shot refinement: the top-K predicted
	// candidates each run once on synthetic operands and the fastest
	// measured wins. Without it the prediction alone decides.
	Measure bool
	// TopK is how many leading candidates the refinement measures
	// (default 2 — the ISSUE's "refine the top-2").
	TopK int
	// MaxMeasureFLOPs bounds the refinement: geometries whose direct
	// FLOPs exceed it skip measurement (a one-shot run would cost more
	// than a mispredicted choice). ≤0 means the 2 GFLOP default.
	MaxMeasureFLOPs float64
}

// defaultMaxMeasureFLOPs keeps a refinement run in the tens of
// milliseconds on the calibrated host: at the ~1 GFLOP/s effective rate of
// the slowest eligible backend, 1e8 direct-conv FLOPs is ~100 ms worst
// case per measured candidate — acceptable once per plan-cache miss,
// while every bench-grid shape (≤ a few MFLOPs) stays far below the bound.
const defaultMaxMeasureFLOPs = 1e8

// Dispatch scores every eligible backend for (p, prec) and returns the
// decision. With o.Measure set and the geometry under the measurement
// bound, the top-K predicted candidates are each executed and timed once
// on synthetic operands and the fastest measured one is chosen; otherwise
// the best-predicted candidate wins.
func (r *Registry) Dispatch(p conv.Params, prec Precision, o Options) (Decision, error) {
	if err := p.Validate(); err != nil {
		return Decision{}, err
	}
	procs := o.Procs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	cands := r.Ranking(p, prec, procs)
	if len(cands) == 0 {
		return Decision{}, fmt.Errorf("backend: no backend supports %v at %v", p, prec)
	}
	d := Decision{Backend: cands[0].Name, Candidates: cands}

	bound := o.MaxMeasureFLOPs
	if bound <= 0 {
		bound = defaultMaxMeasureFLOPs
	}
	if !o.Measure || float64(p.FLOPs()) > bound {
		return d, nil
	}
	topK := o.TopK
	if topK <= 0 {
		topK = 2
	}
	if topK > len(cands) {
		topK = len(cands)
	}
	if topK < 2 {
		return d, nil // nothing to compare
	}

	x, dy, dst, xh, dyh := synthOperands(p, prec)
	best := -1
	for i := 0; i < topK; i++ {
		b, _ := r.Get(cands[i].Name)
		var err error
		start := time.Now()
		if prec == FP16 {
			err = b.ExecuteHalfCtx(context.Background(), p, xh, dyh, dst)
		} else {
			err = b.ExecuteCtx(context.Background(), p, x, dy, dst)
		}
		dur := time.Since(start)
		if err != nil {
			continue // an unmeasurable candidate just keeps its prediction
		}
		cands[i].MeasuredNs = float64(dur.Nanoseconds())
		if best < 0 || cands[i].MeasuredNs < cands[best].MeasuredNs {
			best = i
		}
	}
	if best >= 0 {
		d.Backend = cands[best].Name
		d.Measured = true
	}
	return d, nil
}

// synthOperands builds deterministic pseudo-random operands for the
// refinement runs (seeded, so repeated dispatches of one geometry time
// identical work).
func synthOperands(p conv.Params, prec Precision) (x, dy, dst *tensor.Float32, xh, dyh *tensor.Half) {
	rng := rand.New(rand.NewSource(42))
	x = tensor.NewFloat32(p.XShape())
	dy = tensor.NewFloat32(p.DYShape())
	dst = tensor.NewFloat32(p.DWShape())
	x.FillUniform(rng, -1, 1)
	dy.FillUniform(rng, -1, 1)
	if prec == FP16 {
		xh, dyh = x.ToHalf(), dy.ToHalf()
	}
	return
}
