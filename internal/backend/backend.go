// Package backend unifies the repository's five backward-filter
// convolution algorithms — WinRS (internal/core), explicit im2col+GEMM
// (internal/gemm), direct summation (internal/conv), FFT correlation
// (internal/fftconv) and non-fused Winograd (internal/winnf) — behind one
// executor interface, and provides the cost-model-driven dispatcher that
// picks the predicted-fastest backend per (geometry, precision,
// GOMAXPROCS), optionally refined by a bounded one-shot measurement.
//
// Every Backend computes the same operation to within the eq.(7)-style
// differential tolerance (pinned by this package's cross-backend sweep
// against the FP64 direct oracle), so dispatch can only ever change how
// fast the gradient arrives, never what it is. The serve plan cache
// memoizes the dispatch decision per plan key, making the choice a
// once-per-geometry cost rather than a per-request one.
package backend

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"winrs/internal/conv"
	"winrs/internal/obs"
	"winrs/internal/tensor"
)

// Precision selects the operand encoding of an execution.
type Precision uint8

const (
	// FP32 is IEEE-754 binary32 operands with FP32 accumulation.
	FP32 Precision = iota
	// FP16 is binary16 operands (the emulated Tensor-Core path); the
	// result is always FP32.
	FP16
)

// String names the precision as it appears on the serve wire ("f32"/"f16").
func (pr Precision) String() string {
	if pr == FP16 {
		return "f16"
	}
	return "f32"
}

// Backend is one backward-filter convolution algorithm. Implementations
// are stateless or internally synchronized: a Backend is safe for
// concurrent use. ExecuteCtx/ExecuteHalfCtx write the gradient into dst
// (shape p.DWShape(); prior contents are overwritten, not accumulated)
// and record their wall time into the winrs_backend_execute_seconds
// histogram (obs.Default), so /metrics shows per-backend latency the same
// way it shows per-stage WinRS timings.
//
// Cancellation is cooperative and backend-dependent: WinRS aborts before
// its next unit; the baseline backends check ctx only at the boundaries
// (their inner loops are not cancellation-aware), mirroring the
// forward/backward-data serve paths.
type Backend interface {
	// Name is the stable dispatch identifier ("winrs", "gemm", "direct",
	// "fft", "winnf") used in plan keys, request headers, metrics labels
	// and bench JSON.
	Name() string
	// Supports reports whether the backend covers the layer geometry at
	// the precision (e.g. winnf only handles square 3×3/5×5, FFT is FP32
	// only).
	Supports(p conv.Params, prec Precision) bool
	// WorkspaceBytes reports the scratch the backend materializes beyond
	// operands and result — the paper's Table 2 axis, surfaced per
	// geometry by winrs-info -dispatch.
	WorkspaceBytes(p conv.Params, prec Precision) int64
	// Cost returns the analytic work estimate the dispatcher scores
	// (executed FLOPs, DRAM-class traffic, sustained-efficiency derate,
	// parallelizable grain count).
	Cost(p conv.Params, prec Precision) Cost
	// ExecuteCtx computes ∇W from FP32 operands into dst.
	ExecuteCtx(ctx context.Context, p conv.Params, x, dy *tensor.Float32, dst *tensor.Float32) error
	// ExecuteHalfCtx computes ∇W from binary16 operands into the FP32 dst.
	// It errors for backends without FP16 support (Supports(p, FP16) is
	// the guard).
	ExecuteHalfCtx(ctx context.Context, p conv.Params, x, dy *tensor.Half, dst *tensor.Float32) error
}

// execHist returns the per-backend execution-latency histogram in the
// process-wide registry (registration is idempotent).
func execHist(name string) *obs.Histogram {
	return obs.Default.Histogram("winrs_backend_execute_seconds",
		"Backward-filter execution latency per backend.",
		[]float64{0.5, 0.99}, obs.Label{Key: "backend", Value: name})
}

// observe wraps one backend execution with boundary cancellation checks
// and the obs latency recording shared by every adapter.
func observe(ctx context.Context, name string, f func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	if err := f(); err != nil {
		return err
	}
	execHist(name).Observe(time.Since(start))
	return ctx.Err()
}

// checkOperands validates geometry and shapes once, so adapters can hand
// operands straight to implementations that panic on mismatch.
func checkOperands(p conv.Params, xs, dys, dsts tensor.Shape) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if xs != p.XShape() || dys != p.DYShape() {
		return fmt.Errorf("backend: operand shapes %v, %v; want %v, %v",
			xs, dys, p.XShape(), p.DYShape())
	}
	if dsts != p.DWShape() {
		return fmt.Errorf("backend: dst shape %v, want %v", dsts, p.DWShape())
	}
	return nil
}

// Registry is an ordered set of backends. The order is the tie-break for
// equal dispatch scores (earlier wins), with WinRS first — the paper's
// algorithm stays the default wherever the model sees a dead heat.
type Registry struct {
	list   []Backend
	byName map[string]Backend
}

// NewRegistry builds a registry from the given backends (order preserved;
// duplicate names panic — that is a wiring error).
func NewRegistry(bs ...Backend) *Registry {
	r := &Registry{byName: make(map[string]Backend, len(bs))}
	for _, b := range bs {
		if _, dup := r.byName[b.Name()]; dup {
			panic("backend: duplicate backend " + b.Name())
		}
		r.list = append(r.list, b)
		r.byName[b.Name()] = b
	}
	return r
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry holding all five algorithms,
// in canonical order: winrs, gemm, direct, fft, winnf.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewRegistry(
			&winrsBackend{},
			&gemmBackend{},
			&directBackend{},
			&fftBackend{},
			&winnfBackend{},
		)
	})
	return defaultReg
}

// Get returns the named backend.
func (r *Registry) Get(name string) (Backend, bool) {
	b, ok := r.byName[name]
	return b, ok
}

// Names lists the registered backend names in registry order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.list))
	for i, b := range r.list {
		out[i] = b.Name()
	}
	return out
}

// Backends returns the registered backends in registry order.
func (r *Registry) Backends() []Backend { return append([]Backend(nil), r.list...) }

// Eligible returns the backends supporting (p, prec), in registry order.
func (r *Registry) Eligible(p conv.Params, prec Precision) []Backend {
	var out []Backend
	for _, b := range r.list {
		if b.Supports(p, prec) {
			out = append(out, b)
		}
	}
	return out
}

// Ranking scores every eligible backend and returns candidates sorted by
// predicted time (ascending; ties keep registry order). It is Dispatch
// without the refinement step — what winrs-info -dispatch prints.
func (r *Registry) Ranking(p conv.Params, prec Precision, procs int) []Candidate {
	var out []Candidate
	for _, b := range r.Eligible(p, prec) {
		out = append(out, Candidate{
			Name:           b.Name(),
			WorkspaceBytes: b.WorkspaceBytes(p, prec),
			PredictedNs:    PredictNs(b.Cost(p, prec), procs),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].PredictedNs < out[j].PredictedNs })
	return out
}
