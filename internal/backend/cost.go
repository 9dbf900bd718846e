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
	// Eff is the sustained rate as a fraction of the per-proc scalar rate
	// hostFLOPSPerProc; above 1 where a SIMD kernel outruns it.
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
	// EWM; WinRS's AVX2 chunk kernel runs several times faster, which the
	// WinRS efficiencies of AVX2 plans carry.
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

// dwDerate scales the efficiency of depthwise WinRS plans. Like the other
// derates it is fit relative to the other backends, not to absolute time:
// on the nine MobileNet-v1 depthwise layers of bench/ (FP16, N = 1, 2
// workers, median of 15 alternating calls through the backend adapters)
// it makes the predicted WinRS/direct time ratio match the measured one
// (geometric mean 1.31–1.34 over two fits, per layer 0.91–2.14). The
// absolute fit is 0.34–0.35: the model predicts every backend 2–8× too
// fast on these layers (hostFLOPSPerProc was fit to the scalar EWM), and
// applying it to WinRS alone would rank direct first on every one of
// them, where WinRS measured 1.5–4× faster.
const dwDerate = 1.3

// operandBytes32 is one compulsory pass over X, ∇Y and ∇W in FP32.
func operandBytes32(p conv.Params) float64 { return float64(p.DataBytes32()) }

// --- per-backend Cost methods ---

func (winrsBackend) Cost(p conv.Params, prec Precision) Cost {
	cfg, err := configure(p, prec)
	if err != nil {
		return Cost{FLOPs: math.Inf(1), Eff: 1, Grains: 1}
	}
	var flops float64
	for _, s := range cfg.Segments {
		// Per-group plan segments: each of the G per-group passes reduces
		// O_C/G × I_C/G channels, so the total across passes is O_C × I_C/G.
		segElems := float64(s.Rows()) * float64(s.Cols()) * float64(p.N)
		direct := 2 * segElems * float64(p.FH) * float64(p.FW) *
			float64(p.OC) * float64(p.ICG())
		flops += direct / s.K.Accel() * 1.10
	}
	// The pool schedules units, not tiles: a unit runs all of its rows,
	// width tiles and images itself, so the unit count bounds the
	// parallelism. Units() counts every group's units of a grouped plan,
	// whose batch spans its groups, and the channel-wide grid of a
	// depthwise plan.
	grains := cfg.Units()
	// Z × the full ∇W: a depthwise plan's buckets are the whole ∇W; other
	// grouped plans' per-group buckets are 1/G of it and are swept once
	// per each of the G passes.
	dwBytes := float64(p.DWShape().Elems()) * 4
	bytes := operandBytes32(p) + float64(cfg.Z())*dwBytes
	// Larger transforms spend more non-GEMM instructions (the footnote-3
	// trade-off), so the efficiency falls with the fast kernel's α. Plans
	// on the Go 4×4 panel (I_C < 8, hosts without AVX2) keep the values
	// fit to the scalar kernel tier. The AVX2 chunk kernel's values are
	// fit like dwDerate, relative to the GEMM backend: on conv1_2,
	// conv3_2, conv4_2, conv5_2 and four dense FP32 serve-churn keys
	// (2 workers, median of 9 calls through the adapters, two runs), each
	// is the geometric mean over its α of the efficiency that makes
	// WinRS's predicted ÷ measured time equal GEMM's on the same shape.
	// The per-shape values spread widely because the model charges only
	// the EWM's FLOPs: 0.5–1.3 on the churn keys (I_C, O_C ≤ 32, where the
	// scalar transforms weigh most) and 3–8.6 on the VGG16 layers.
	alpha := cfg.Pair.Fast.Alpha
	eff := map[int]float64{2: 0.66, 4: 0.65, 8: 0.60, 16: 0.40}[alpha]
	if cfg.EWMKernel() == "avx2" {
		eff = map[int]float64{2: 1.8, 4: 1.8, 8: 3.2, 16: 0.8}[alpha]
	}
	if eff == 0 {
		eff = 0.60
	}
	if prec == FP16 {
		// Software binary16 around the EWM: the decoded-operand residency
		// and the arithmetic rounding decode narrowed the gap to fp32
		// (measured ~0.58× its throughput on the bench grid).
		eff *= 0.60
	}
	switch {
	case p.G() > 1 && p.ICG() == 1 && p.OCG() == 1:
		// Depthwise: per channel the diagonal EWM is α multiply-adds
		// against α² for the input transform, so the width-cb transforms,
		// not the EWM, set the time.
		eff *= dwDerate
	case p.G() > 1 && p.ICG() == 1:
		// Multiplier plans (I_C/G = 1 < O_C/G) run one-column panels per
		// group, which sustain a lower fraction of FMA peak than the
		// register blocks (measured on the per-group depthwise rows of
		// winrs-bench, which ran the same one-column shape).
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
