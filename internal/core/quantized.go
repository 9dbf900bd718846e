package core

import (
	"math"

	"winrs/internal/bf16"
	"winrs/internal/fp8"
	"winrs/internal/tensor"
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
	// Round quantizes one value. It must be idempotent, work element by
	// element and map 0 to +0: the execution rounds X and ∇Y once per
	// call rather than per gathered tile, which is only equivalent under
	// those properties (clipped padding stays an exact zero).
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
// idempotent). The result is FP32, like the FP16 path. It runs the same
// pipeline as Execute — Ŵ cache, EWM kernel tier, pooled units, the
// group axis of grouped plans and the channel-wide grid of depthwise
// ones — with the format's storage policy: X and ∇Y are copied and
// rounded once per call into whole-operand workspace mirrors (depthwise
// units round each staged tile instead), and every stored panel is
// rounded in place.
func ExecuteQuantized(cfg *Config, x, dy *tensor.Float32, q Quantizer) *tensor.Float32 {
	return ExecuteQuantizedIn(cfg, nil, x, dy, q)
}

// ExecuteQuantizedIn is ExecuteQuantized on the caller's workspace (nil
// allocates fresh), like ExecuteIn: a caller that keeps one pays for its
// buckets, Ŵ cache and operand mirrors once.
func ExecuteQuantizedIn(cfg *Config, ws *Workspace, x, dy *tensor.Float32, q Quantizer) *tensor.Float32 {
	ops := planar(cfg.Params, x.Shape, dy.Shape, operand{f32: x.Data}, operand{f32: dy.Data}, "ExecuteQuantized")
	if q.Round == nil {
		panic("core: ExecuteQuantized requires a Round function")
	}
	out, _ := execute(cfg, ws, ops, quantStorage(q), nil, nil)
	return out
}
