// Package winrs is the public API of the WinRS library: a fast,
// memory-efficient and flexible backward-filter convolution (BFC) based on
// reduce-split fused 1-D Winograd kernels, reproducing the ICPP 2025 paper
// "WinRS: Accelerate Winograd Backward-Filter Convolution with Tiny
// Workspace".
//
// BFC computes filter gradients ∇W from input feature maps X and output
// gradients ∇Y:
//
//	∇W[oc,fh,fw,ic] = Σ_{n,oh,ow} X[n, oh+fh-pH, ow+fw-pW, ic]·∇Y[n,oh,ow,oc]
//
// All tensors are NHWC. The minimal use is:
//
//	p := winrs.Params{N: 32, IH: 56, IW: 56, FH: 3, FW: 3, IC: 64, OC: 64, PH: 1, PW: 1}
//	dw, err := winrs.BackwardFilter(p, x, dy)
//
// For repeated gradients over the same layer geometry, build a Plan once
// and execute it per step:
//
//	plan, err := winrs.NewPlan(p)
//	dw := plan.Execute(x, dy)
//
// The FP16 path (Plan.ExecuteHalf) emulates the paper's Tensor-Core
// kernels: mixed-precision transforms, binary16 storage of transformed
// tiles, FP32 accumulation, and eq. (7) scaling matrices for the α = 16
// transforms.
package winrs

import (
	"fmt"
	"sync/atomic"

	"winrs/internal/conv"
	"winrs/internal/core"
	"winrs/internal/serve"
	"winrs/internal/tensor"
)

// Params describes one convolutional layer in the paper's notation
// (stride 1, symmetric zero padding). It is an alias of the internal
// parameter type so the whole module shares one geometry definition.
type Params = conv.Params

// Shape is an N×H×W×C tensor extent.
type Shape = tensor.Shape

// Tensor is a dense NHWC float32 tensor.
type Tensor = tensor.Float32

// HalfTensor is a dense NHWC binary16 tensor for the FP16 path.
type HalfTensor = tensor.Half

// NewTensor allocates a zeroed float32 tensor.
func NewTensor(s Shape) *Tensor { return tensor.NewFloat32(s) }

// NewHalfTensor allocates a zeroed binary16 tensor.
func NewHalfTensor(s Shape) *HalfTensor { return tensor.NewHalf(s) }

// Hardware describes the device properties WinRS's configuration
// adaptation targets (Algorithm 1 scales the segment count with the SM
// count).
type Hardware = core.Hardware

// Plan is an adapted, reusable WinRS execution plan for one layer
// geometry: the fastest kernel pair, the segment partition and the bucket
// workspace size are all fixed at construction. A Plan is safe for
// concurrent Execute calls from multiple goroutines; each call borrows a
// private bucket arena: the one the plan keeps, or, while another call
// holds that, one from the plan's workspace pool.
type Plan struct {
	cfg   *core.Config
	entry *serve.Entry // plan-cache entry carrying the workspace pool
	// arena is the workspace the plan keeps between calls. The entry's
	// pool drops whatever sits idle through two garbage-collection cycles,
	// so without it a plan executed step after step would re-allocate its
	// buckets and Ŵ cache after every other cycle.
	arena atomic.Pointer[core.Workspace]
}

// defaultPlans is the process-wide plan cache behind NewPlan and the
// one-shot wrappers: configuration adaptation (§4) runs once per layer
// geometry and the bucket workspace is pooled per plan, so repeated
// one-shot calls behave like a hand-managed Plan.
var defaultPlans = serve.NewPlanCache(256)

// PlanCacheStats reports the process-wide plan cache's cumulative hits and
// misses (a hit means configuration adaptation was skipped).
func PlanCacheStats() (hits, misses uint64) { return defaultPlans.Stats() }

// PlanOption customizes NewPlan.
type PlanOption func(*planOpts)

type planOpts struct {
	hw       *Hardware
	fp16     bool
	segments int
}

// WithHardware targets a specific device model instead of the default
// (128 SMs, the paper's RTX 4090).
func WithHardware(hw Hardware) PlanOption {
	return func(o *planOpts) { o.hw = &hw }
}

// WithFP16 selects the emulated Tensor-Core path; restrict kernels to the
// six FP16-ported variants where possible.
func WithFP16() PlanOption { return func(o *planOpts) { o.fp16 = true } }

// WithSegments forces the segment count Z, bypassing the adaptive
// Algorithm 1. Intended for experiments and ablations.
func WithSegments(z int) PlanOption { return func(o *planOpts) { o.segments = z } }

// NewPlan runs WinRS configuration adaptation (§4 of the paper: kernel-pair
// selection, segment-count estimation, segment-shape calculation) and
// returns a reusable plan. Plans are cached process-wide by (geometry,
// precision, hardware, forced segments): a repeated NewPlan for the same
// layer returns the already-adapted plan without re-running §4.
func NewPlan(p Params, opts ...PlanOption) (*Plan, error) {
	e, err := planEntry(p, opts)
	if err != nil {
		return nil, err
	}
	return &Plan{cfg: e.Cfg, entry: e}, nil
}

// planEntry returns the process-wide plan-cache entry for p under opts.
func planEntry(p Params, opts []PlanOption) (*serve.Entry, error) {
	var o planOpts
	for _, f := range opts {
		f(&o)
	}
	key := serve.PlanKey{Params: p, FP16: o.fp16, Segments: o.segments}
	if o.hw != nil {
		key.NSM = o.hw.NSM
	}
	e, _, err := defaultPlans.Get(key)
	return e, err
}

// acquire borrows the plan's arena, or a pooled one while another call
// holds it.
func (pl *Plan) acquire() *core.Workspace {
	if ws := pl.arena.Swap(nil); ws != nil {
		return ws
	}
	return pl.entry.AcquireWorkspace()
}

// release keeps ws as the plan's arena if the slot is free, else returns
// it to the pool.
func (pl *Plan) release(ws *core.Workspace) {
	if !pl.arena.CompareAndSwap(nil, ws) {
		pl.entry.ReleaseWorkspace(ws)
	}
}

// Segments returns the segment count Z the plan realized.
func (pl *Plan) Segments() int { return pl.cfg.Z() }

// WorkspaceBytes returns the bucket workspace the plan executes with:
// (buckets−1) × sizeof(∇W), the paper's "tiny workspace". Bucket 0 is
// the result tensor itself, so the plan's pooled arena holds exactly
// these buckets. A plan has Z buckets, or one when its fast units run its
// residual units.
func (pl *Plan) WorkspaceBytes() int64 { return pl.cfg.WorkspaceBytes() }

// WHatCacheBytes returns the footprint of the transformed-∇Y cache the
// execution fills once per call and reuses across all units of a segment.
// Bounded by (max α/r)·sizeof(∇Y) regardless of segment count; see
// core.Config.WHatCacheBytes for the exact accounting.
func (pl *Plan) WHatCacheBytes() int64 { return pl.cfg.WHatCacheBytes() }

// KernelPair describes the selected fastest kernel pair in Ω-notation.
func (pl *Plan) KernelPair() string { return pl.cfg.Pair.String() }

// Execute computes ∇W in FP32. x must have shape N×I_H×I_W×I_C and dy
// N×O_H×O_W×O_C; the result is a freshly-allocated O_C×F_H×F_W×I_C tensor
// owned by the caller. The bucket workspace is the one the plan keeps, so
// steady-state calls do not re-allocate it, garbage collections between
// them included; concurrent calls are safe and each borrow their own
// arena.
func (pl *Plan) Execute(x, dy *Tensor) *Tensor {
	ws := pl.acquire()
	defer pl.release(ws)
	return core.ExecuteIn(pl.cfg, ws, x, dy, nil)
}

// ExecuteHalf computes ∇W on the emulated FP16 Tensor-Core path. The
// result is FP32 (accumulators and bucket reduction stay FP32, per the
// paper's accuracy design). Like Execute, it reuses the plan's workspace
// and is safe for concurrent use.
func (pl *Plan) ExecuteHalf(x, dy *HalfTensor) *Tensor {
	ws := pl.acquire()
	defer pl.release(ws)
	return core.ExecuteHalfIn(pl.cfg, ws, x, dy, nil)
}

// BackwardFilter is the one-shot convenience wrapper: it configures a plan
// for p (cached process-wide, so repeated calls on the same geometry skip
// configuration adaptation) and computes ∇W in FP32. When O_W is too small
// for any registered Winograd kernel, the plan transparently uses a direct-
// convolution unit for the residual columns, so small outputs still work;
// an error is returned only for invalid parameters or geometries no
// execution path covers. The workspace comes from the cached plan's pool:
// no Plan outlives the call to keep one.
func BackwardFilter(p Params, x, dy *Tensor, opts ...PlanOption) (*Tensor, error) {
	e, err := planEntry(p, opts)
	if err != nil {
		return nil, err
	}
	ws := e.AcquireWorkspace()
	defer e.ReleaseWorkspace(ws)
	return core.ExecuteIn(e.Cfg, ws, x, dy, nil), nil
}

// BackwardFilterHalf is the one-shot FP16 path.
func BackwardFilterHalf(p Params, x, dy *HalfTensor, opts ...PlanOption) (*Tensor, error) {
	// Clone before appending: appending to the caller's variadic slice in
	// place would clobber its backing array when it has spare capacity.
	opts = append(append([]PlanOption(nil), opts...), WithFP16())
	e, err := planEntry(p, opts)
	if err != nil {
		return nil, err
	}
	ws := e.AcquireWorkspace()
	defer e.ReleaseWorkspace(ws)
	return core.ExecuteHalfIn(e.Cfg, ws, x, dy, nil), nil
}

// MARE computes the paper's accuracy metric (mean absolute relative error)
// of a float32 result against a float64 ground truth.
func MARE(approx *Tensor, exact *tensor.Float64) float64 {
	return tensor.MARE(approx, exact)
}

// Reference computes the float64 direct-convolution ground truth for
// validation.
func Reference(p Params, x, dy *Tensor) *tensor.Float64 {
	return conv.BackwardFilterDirect64(p, x.ToFloat64(), dy.ToFloat64())
}

// --- Extensions beyond the paper's evaluation (its §8 roadmap) ---

// Quantizer is a reduced-precision storage format for the generic
// quantized execution path (BF16 / FP8 / INT8 — the formats the paper
// names as FP16's successors).
type Quantizer = core.Quantizer

// The provided storage formats.
var (
	// BF16 is bfloat16: float32 exponent range, 8-bit mantissa.
	BF16 = core.QuantBF16
	// FP8E4M3 is OCP FP8 with 3 mantissa bits (max 448).
	FP8E4M3 = core.QuantFP8E4M3
	// FP8E5M2 is OCP FP8 with 2 mantissa bits (max 57344).
	FP8E5M2 = core.QuantFP8E5M2
)

// Int8 returns a symmetric INT8 quantizer saturating at ±absmax.
func Int8(absmax float32) Quantizer { return core.QuantInt8(absmax) }

// ExecuteQuantized computes ∇W with operands and transformed tiles stored
// in the given format and FP32 accumulation — the generalization of the
// FP16 Tensor-Core path. Like Execute, it reuses the plan's workspace and
// is safe for concurrent use.
func (pl *Plan) ExecuteQuantized(x, dy *Tensor, q Quantizer) *Tensor {
	ws := pl.acquire()
	defer pl.release(ws)
	return core.ExecuteQuantizedIn(pl.cfg, ws, x, dy, q)
}

// Forward computes the forward convolution Y = X ⊛ W with fused 1-D
// Winograd kernels (the paper's "WinRS can support FC" claim); W is shaped
// O_C×F_H×F_W×I_C.
func Forward(p Params, x, w *Tensor) (*Tensor, error) {
	return core.Forward(p, x, w)
}

// BackwardData computes the data gradient ∇X from ∇Y and W via the forward
// kernel on the flipped filter (BDC support).
func BackwardData(p Params, dy, w *Tensor) (*Tensor, error) {
	return core.BackwardData(p, dy, w)
}

// Params3D describes a volumetric convolutional layer (NDHWC) for the N-D
// extension of §3 Level 2.
type Params3D = conv.Params3D

// Tensor5 is a dense NDHWC float32 tensor.
type Tensor5 = tensor.Float325

// NewTensor5 allocates a zeroed 5-D tensor.
func NewTensor5(s tensor.Shape5) *Tensor5 { return tensor.NewFloat325(s) }

// BackwardFilter3D computes volumetric filter gradients with the N-D
// reduce-split pipeline: depth and height flatten into 1-D filters, the
// width axis carries the F(n,r) kernels, and both spatial padding axes are
// clipped. The FP16 path is not implemented for volumetric layers:
// passing WithFP16 returns an error rather than silently computing FP32.
func BackwardFilter3D(p Params3D, x, dy *Tensor5, opts ...PlanOption) (*Tensor5, error) {
	coreOpts, err := fp32Options("BackwardFilter3D", opts)
	if err != nil {
		return nil, err
	}
	return core.BackwardFilter3D(p, x, dy, coreOpts...)
}

// fp32Options translates opts into core options for the FP32-only entry
// point fn, refusing WithFP16 with an error that names fn.
func fp32Options(fn string, opts []PlanOption) ([]core.Option, error) {
	var o planOpts
	for _, f := range opts {
		f(&o)
	}
	if o.fp16 {
		return nil, fmt.Errorf("winrs: WithFP16 is not supported for %s (FP32 only)", fn)
	}
	var coreOpts []core.Option
	if o.hw != nil {
		coreOpts = append(coreOpts, core.WithHardware(*o.hw))
	}
	if o.segments > 0 {
		coreOpts = append(coreOpts, core.WithSegments(o.segments))
	}
	return coreOpts, nil
}

// StridedParams describes a strided convolutional layer (downsampling
// convs, patchify stems).
type StridedParams = conv.StridedParams

// ForwardStrided computes a strided forward convolution as a phase sum of
// stride-1 fused-Winograd passes.
func ForwardStrided(p StridedParams, x, w *Tensor) (*Tensor, error) {
	return core.ForwardStrided(p, x, w)
}

// BackwardDataStrided computes the input gradient of a strided convolution
// via per-phase stride-1 data gradients.
func BackwardDataStrided(p StridedParams, dy, w *Tensor) (*Tensor, error) {
	return core.BackwardDataStrided(p, dy, w)
}

// BackwardFilterStrided computes filter gradients for strided convolutions
// by phase decimation: each (stride-phase) sub-problem runs the full
// stride-1 WinRS pipeline and the results interleave into ∇W. The FP16
// path is not implemented for strided layers: passing WithFP16 returns an
// error rather than silently computing FP32.
func BackwardFilterStrided(p StridedParams, x, dy *Tensor, opts ...PlanOption) (*Tensor, error) {
	coreOpts, err := fp32Options("BackwardFilterStrided", opts)
	if err != nil {
		return nil, err
	}
	return core.BackwardFilterStrided(p, x, dy, coreOpts...)
}
