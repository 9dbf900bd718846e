package core

import (
	"math"

	"winrs/internal/bf16"
	"winrs/internal/conv"
	"winrs/internal/fp8"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

// Quantizer models a reduced-precision storage format in the value domain:
// Round maps a float32 to the nearest representable value of the format.
// The quantized execution path mirrors the FP16 Tensor-Core pipeline —
// operands and transformed tiles are stored in the format, products
// accumulate in FP32, output transform and bucket reduction stay FP32 —
// which is exactly how the paper says the FP16 kernels "can be ported to
// BF16, and further to FP8 and INT8" (§8).
type Quantizer struct {
	// Name labels the format in reports.
	Name string
	// Round quantizes one value (must be idempotent).
	Round func(float32) float32
	// RoundSlice, when set, quantizes a whole slice in place and must be
	// bit-identical to Round per element. The execution path uses it to
	// round gathered panels in bulk (the formats' table-driven kernels);
	// when nil the path falls back to per-element Round.
	RoundSlice func([]float32)
	// UseScaling selects the eq. (7) scaling matrices for α ≥ 16
	// transforms; formats with a narrow dynamic range (FP16, FP8) need
	// them, wide-exponent formats (BF16) do not.
	UseScaling bool
}

// QuantBF16 is the bfloat16 storage format: float32 range, 8-bit mantissa.
var QuantBF16 = Quantizer{Name: "BF16", Round: bf16.Round, RoundSlice: bf16.RoundSlice}

// QuantFP8E4M3 is the OCP FP8 E4M3 format (max 448), scaled transforms on.
var QuantFP8E4M3 = Quantizer{Name: "FP8-E4M3", Round: fp8.E4M3.Round, RoundSlice: fp8.E4M3.RoundSlice, UseScaling: true}

// QuantFP8E5M2 is the OCP FP8 E5M2 format (max 57344), scaled transforms on.
var QuantFP8E5M2 = Quantizer{Name: "FP8-E5M2", Round: fp8.E5M2.Round, RoundSlice: fp8.E5M2.RoundSlice, UseScaling: true}

// QuantInt8 returns a symmetric INT8 quantizer with the given absolute
// maximum: values snap to the 255-level grid absmax·{-127..127}/127,
// saturating beyond ±absmax.
func QuantInt8(absmax float32) Quantizer {
	scale := absmax / 127
	return Quantizer{
		Name: "INT8",
		Round: func(v float32) float32 {
			if scale == 0 {
				return 0
			}
			q := float32(math.RoundToEven(float64(v / scale)))
			if q > 127 {
				q = 127
			}
			if q < -127 {
				q = -127
			}
			return q * scale
		},
		UseScaling: true,
	}
}

// ExecuteQuantized runs the configured plan with the given storage format.
// x and dy are float32 tensors whose values are quantized on load (a
// pre-quantized tensor passes through unchanged because Round is
// idempotent). The result is FP32, like the FP16 path. Grouped plans run
// the per-group plan over each group's channel slice, reducing into the
// group's contiguous ∇W slab.
func ExecuteQuantized(cfg *Config, x, dy *tensor.Float32, q Quantizer) *tensor.Float32 {
	p := cfg.Params
	if x.Shape != p.XShape() || dy.Shape != p.DYShape() {
		panic("core: ExecuteQuantized operand shape mismatch")
	}
	if q.Round == nil {
		panic("core: ExecuteQuantized requires a Round function")
	}
	if cfg.group == nil {
		return quantizedPass(cfg, x, dy, q, nil)
	}
	pg := cfg.group.Params
	icg, ocg := p.ICG(), p.OCG()
	xRows := p.N * p.IH * p.IW
	dyRows := p.N * p.OH() * p.OW()
	xg := tensor.NewFloat32(pg.XShape())
	dyg := tensor.NewFloat32(pg.DYShape())
	dst := tensor.NewFloat32(p.DWShape())
	for gi := 0; gi < p.G(); gi++ {
		sliceChannels(xg.Data, x.Data, xRows, p.IC, gi*icg, icg)
		sliceChannels(dyg.Data, dy.Data, dyRows, p.OC, gi*ocg, ocg)
		quantizedPass(cfg.group, xg, dyg, q, groupSlab(dst, pg.DWShape(), gi))
	}
	return dst
}

// quantizedPass executes an ungrouped plan in the given storage format,
// reducing into dst (allocated when nil).
func quantizedPass(cfg *Config, x, dy *tensor.Float32, q Quantizer, dst *tensor.Float32) *tensor.Float32 {
	ws := NewWorkspace(cfg)
	runUnitsFunc(cfg, func(si int, seg Segment, fh, j int) {
		segmentTileQuantized(cfg.Params, seg, fh, j, x, dy, ws.buckets[si], q)
	})
	return reduceInto(cfg, ws.buckets, dst)
}

// BackwardFilterQuantized is the one-call quantized path.
func BackwardFilterQuantized(p conv.Params, x, dy *tensor.Float32, q Quantizer, opts ...Option) (*tensor.Float32, error) {
	cfg, err := Configure(p, opts...)
	if err != nil {
		return nil, err
	}
	return ExecuteQuantized(cfg, x, dy, q), nil
}

// segmentTileQuantized mirrors the FP16 unit for an arbitrary storage
// format: gather → quantize → FP32 transform → quantize ("SMEM storage in
// the format") → FP32-accumulated EWM → FP32 output transform.
func segmentTileQuantized(p conv.Params, seg Segment, fh, j int,
	x, dy *tensor.Float32, bucket []float32, q Quantizer) {
	k := seg.K
	tr := k.Transform()
	bal := tr.Balanced()
	gMat, dMat, aMat := bal.G, bal.D, bal.A
	if q.UseScaling && tr.Alpha >= 16 {
		sc := tr.Scaled()
		gMat, dMat, aMat = sc.G, sc.D, sc.A
	}
	gPlan, dtPlan := winograd.PanelPlansFor(gMat, dMat)
	n, r, alpha := tr.N, tr.R, tr.Alpha
	oc, ic := p.OC, p.IC

	s := getTileScratch()
	defer putTileScratch(s)
	v := growF32Zero(&s.v, alpha*oc*ic)
	wRaw := growF32(&s.wRaw, r*oc)
	wHat := growF32(&s.wHatF, alpha*oc)
	xRaw := growF32(&s.xRaw, alpha*ic)
	xHat := growF32(&s.xHatF, alpha*ic)
	colBase := j * n

	for oh := seg.Row0; oh < seg.Row1; oh++ {
		ih := oh + fh - p.PH
		if ih < 0 || ih >= p.IH {
			continue // height-axis clipping
		}
		for ow0 := seg.Col0; ow0 < seg.Col1; ow0 += r {
			for nb := 0; nb < p.N; nb++ {
				// Gather the rows as raw float32, then quantize the whole
				// panel in one bulk call — bit-identical to per-element
				// rounding during the gather (Round is element-wise and
				// Round(0) = 0 for every format, so the zero-filled clipped
				// rows are unaffected).
				for u := 0; u < r; u++ {
					base := dy.Shape.Index(nb, oh, ow0+u, 0)
					copy(wRaw[u*oc:(u+1)*oc], dy.Data[base:base+oc])
				}
				quantizeSlice(wRaw, q)
				gPlan.MulPanel(wRaw, wHat, r, oc)
				quantizeSlice(wHat, q)
				for u := 0; u < alpha; u++ {
					iw := ow0 + colBase + u - p.PW
					dst := xRaw[u*ic : (u+1)*ic]
					if iw < 0 || iw >= p.IW {
						for i := range dst {
							dst[i] = 0
						}
						continue
					}
					base := x.Shape.Index(nb, ih, iw, 0)
					copy(dst, x.Data[base:base+ic])
				}
				quantizeSlice(xRaw, q)
				dtPlan.MulPanel(xRaw, xHat, alpha, ic)
				quantizeSlice(xHat, q)
				ewmPanels(v, wHat, xHat, alpha, oc, ic)
			}
		}
	}
	writeOutput(p, aMat, v, bucket, fh, colBase, n, alpha, oc, ic, growF32(&s.acc, alpha))
}

// quantizeSlice rounds vs in place, preferring the format's bulk kernel.
// INT8 (and any caller-supplied Quantizer without a bulk kernel) takes
// the per-element fallback.
func quantizeSlice(vs []float32, q Quantizer) {
	if q.RoundSlice != nil {
		q.RoundSlice(vs)
		return
	}
	for i, v := range vs {
		vs[i] = q.Round(v)
	}
}
