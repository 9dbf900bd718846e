package backend

import (
	"math"

	"winrs/internal/conv"
	"winrs/internal/fftconv"
	"winrs/internal/winnf"
)

// Cost is the analytic work estimate the dispatcher scores. It is a host
// (CPU) analogue of the gpusim launch accounting in internal/perfmodel:
// the same executed-FLOPs and intermediate-traffic quantities, but with
// sustained-efficiency derates calibrated for this repository's Go
// kernels instead of GPU pipelines, plus the parallel grain count of the
// dominant stage (the quantity that limits how many pool workers the
// backend can actually feed — e.g. direct parallelizes only over O_C).
type Cost struct {
	// FLOPs is the executed floating-point work (after any complexity
	// reduction; including redundant work such as FFT plane padding).
	FLOPs float64
	// Bytes is the memory traffic of materialized intermediates plus one
	// compulsory pass over the operands.
	Bytes float64
	// Eff is the sustained fraction of per-proc scalar peak in (0, 1].
	Eff float64
	// Grains is the number of independently schedulable work items of the
	// dominant stage; effective parallelism is min(procs, Grains).
	Grains int
}

// Host calibration of the prediction. The absolute scale only has to be
// roughly right — dispatch compares backends against each other, and the
// optional measurement refinement settles close calls — but the relative
// derates below are fit against measured ns/op of the five backends on
// the bench grid of cmd/winrs-bench (see TestDispatchWithinBest).
const (
	// hostFLOPSPerProc is the per-worker FLOP rate charged to every
	// backend's compute term. It was fit to the scalar register-blocked
	// EWM; WinRS's AVX2 EWM panel runs several times faster on AVX2
	// hosts, which the WinRS derates do not yet model.
	hostFLOPSPerProc = 2.0e9
	// hostBytesPerSec is the streaming bandwidth charged to intermediate
	// traffic (shared across workers, hence not scaled by procs).
	hostBytesPerSec = 6.0e9
)

// PredictNs turns a Cost into a predicted wall time in nanoseconds for
// the given worker count: a roofline-style sum of the compute term at
// min(procs, Grains)-way parallelism and the serialisable traffic term.
func PredictNs(c Cost, procs int) float64 {
	if procs < 1 {
		procs = 1
	}
	eff := c.Eff
	if eff <= 0 {
		eff = 0.5
	}
	par := float64(procs)
	if c.Grains > 0 && float64(c.Grains) < par {
		par = float64(c.Grains)
	}
	tComp := c.FLOPs / (hostFLOPSPerProc * eff * par)
	tMem := c.Bytes / hostBytesPerSec
	return (tComp + tMem) * 1e9
}

// operandBytes32 is one compulsory pass over X, ∇Y and ∇W in FP32.
func operandBytes32(p conv.Params) float64 { return float64(p.DataBytes32()) }

// --- per-backend Cost methods ---

func (b *winrsBackend) Cost(p conv.Params, prec Precision) Cost {
	cfg, err := b.config(p, prec)
	if err != nil {
		return Cost{FLOPs: math.Inf(1), Eff: 1, Grains: 1}
	}
	var flops float64
	var grains int
	for _, s := range cfg.Segments {
		// Per-group plan segments: each of the G per-group passes reduces
		// O_C/G × I_C/G channels, so the total across passes is O_C × I_C/G.
		segElems := float64(s.Rows()) * float64(s.Cols()) * float64(p.N)
		direct := 2 * segElems * float64(p.FH) * float64(p.FW) *
			float64(p.OC) * float64(p.ICG())
		flops += direct / s.K.Accel() * 1.10
		grains += s.Rows() * (s.Cols() / s.K.R) * p.N
	}
	// The grouped dispatch fuses all G groups into one sched batch, so every
	// group's units are live in the same grain pool (up to the staging-ring
	// pipelining limit, which host procs never reach).
	grains *= p.G()
	// Z × the full ∇W: the per-group buckets are 1/G of it and are swept
	// once per each of the G passes.
	dwBytes := float64(p.DWShape().Elems()) * 4
	bytes := operandBytes32(p) + float64(cfg.Z())*dwBytes
	// Larger transforms spend more non-GEMM instructions (the footnote-3
	// trade-off), mirrored from perfmodel's alpha→eff map at host scale.
	// Recalibrated for the fused kernel tier: the 8-row register blocks and
	// the fused transform+EWM pass lift the small-α kernels ~20% (measured
	// BenchmarkExecuteWinRS forced block4 vs auto), and the two-column
	// transform pass lifts α = 16 (transform-bound) as well.
	eff := map[int]float64{2: 0.66, 4: 0.65, 8: 0.60, 16: 0.40}[cfg.Pair.Fast.Alpha]
	if eff == 0 {
		eff = 0.60
	}
	if prec == FP16 {
		// Software binary16 around the EWM: the decoded-operand residency
		// and the arithmetic rounding decode narrowed the gap to fp32
		// (measured ~0.58× its throughput on the bench grid).
		eff *= 0.60
	}
	if p.G() > 1 && p.ICG() == 1 {
		// Depthwise regime: the dw1 EWM panel drops the channel-reduction
		// loop, but its single-column accumulators sustain a lower fraction
		// of FMA peak than the register blocks (measured on the 56×56
		// G = I_C winrs-bench rows).
		eff *= 0.85
	}
	return Cost{FLOPs: flops, Bytes: bytes, Eff: eff, Grains: grains}
}

func (gemmBackend) Cost(p conv.Params, prec Precision) Cost {
	// Grouped layers run one Algo1 per group; n shrinks to the per-group
	// reduction F_H·F_W·(I_C/G), and m = O_C totals the G sequential
	// passes (O_C/G rows each).
	m := float64(p.OC)
	n := float64(p.FH) * float64(p.FW) * float64(p.ICG())
	k := float64(p.N) * float64(p.OH()) * float64(p.OW())
	flops := 2 * m * n * k
	// The im2col chunk is written once and re-read by the GEMM, per group.
	bytes := operandBytes32(p) + 2*k*n*4*float64(p.G())
	eff := 0.55
	grains := (p.OCG() + 31) / 32 // one pass's M-block parallelism
	if prec == FP16 {
		// Algo1Half runs a scalar table-FMA per multiply-accumulate —
		// an order of magnitude below the float32 GEMM loop.
		eff = 0.05
		grains = p.OCG()
	}
	return Cost{FLOPs: flops, Bytes: bytes, Eff: eff, Grains: grains}
}

func (directBackend) Cost(p conv.Params, prec Precision) Cost {
	eff := 0.40
	if prec == FP16 {
		eff = 0.35 // plus one bulk decode of both operands
	}
	return Cost{
		FLOPs:  float64(p.FLOPs()),
		Bytes:  operandBytes32(p),
		Eff:    eff,
		Grains: p.OC,
	}
}

func (fftBackend) Cost(p conv.Params, prec Precision) Cost {
	lh, lw := fftconv.PlaneSize(p)
	plane := float64(lh * lw)
	logTerm := math.Log2(plane)
	xPlanes := float64(p.N) * float64(p.IC)
	yPlanes := float64(p.N) * float64(p.OC)
	wPlanes := float64(p.OC) * float64(p.IC)
	// 5·L·log2 L per transformed plane, 8 real FLOPs per complex FMA of
	// the batched EWM.
	flops := 5*plane*logTerm*(xPlanes+yPlanes+wPlanes) +
		8*plane*float64(p.N)*wPlanes
	bytes := operandBytes32(p) + 2*(xPlanes+yPlanes+wPlanes)*plane*16
	grains := int(math.Max(xPlanes+yPlanes, wPlanes))
	// complex128 scalar butterflies with strided access.
	return Cost{FLOPs: flops, Bytes: bytes, Eff: 0.20, Grains: grains}
}

func (winnfBackend) Cost(p conv.Params, prec Precision) Cost {
	if !winnf.Supported(p) {
		return Cost{FLOPs: math.Inf(1), Eff: 1, Grains: 1}
	}
	alpha := float64(p.FH + winnf.TileR - 1)
	a2 := alpha * alpha
	th := float64((p.OH() + winnf.TileR - 1) / winnf.TileR)
	tw := float64((p.OW() + winnf.TileR - 1) / winnf.TileR)
	nt := float64(p.N) * th * tw
	oc, ic := float64(p.OC), float64(p.IC)
	// EWM at reduced complexity plus the three float64 transform stages.
	flops := float64(p.FLOPs())/winnf.Accel(p) +
		2*a2*(nt*oc*winnf.TileR+nt*ic*alpha+oc*ic*float64(p.FH))
	bytes := operandBytes32(p) + 2*float64(winnf.Workspace(p))
	eff := 0.30       // per-tile float64 transforms with fresh slices
	grains := int(a2) // the EWM stage: one grain per transform element
	if prec == FP16 {
		eff = 0.06 // binary16 table-FMA EWM
	}
	return Cost{FLOPs: flops, Bytes: bytes, Eff: eff, Grains: grains}
}
