package core

import (
	"winrs/internal/conv"
	"winrs/internal/tensor"
)

// This file implements the paper's N-D extension (§3 Level 2) for k = 3:
// "in Partitioning, divide ∇Y ∈ R^{N×D1×…×Dk×OC} into Z segments; in
// Dimension Reduction, decompose ∇Y(z) into 1-D filters ∈ R^{N×Sk(z)×OC}".
// Concretely, the depth and height axes are flattened into the row axis of
// the 2-D machinery — every (o_d, o_h) pair is one 1-D filter — and the
// width axis carries the reduce-split F(n,r) kernels unchanged. Execution
// is the 2-D pipeline itself (Ŵ cache, EWM tier, pooled units, Kahan
// reduce) on the flattened plan; only the X row address goes through the
// 3-D row map, which clips height- and depth-axis zero padding alike (the
// Figure 7 optimization, applied per axis).

// Config3D is the adapted plan for one volumetric layer: its 3-D geometry
// and the plan of its flattened 2-D geometry (see flat2D), built like any
// other plan, whose segment rows span the flattened (o_d·O_H + o_h) axis.
type Config3D struct {
	Params conv.Params3D
	*Config
}

// Configure3D runs configuration adaptation for a 3-D layer: the kernel
// pair comes from (F_W, O_W) exactly as in 2-D; the segment count follows
// Algorithm 1 with 3-D block counts; the segment grid partitions the
// flattened (O_D·O_H) × O_W plane.
func Configure3D(p conv.Params3D, opts ...Option) (*Config3D, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	o := options(opts)
	p2 := flat2D(p)
	pr, err := SelectPair(p2, o.fp16)
	if err != nil {
		return nil, err
	}
	zHat := o.forceZ
	if zHat <= 0 {
		dwBytes := int64(p.DWShape().Elems()) * 4
		zHat = algorithm1(zInputs{
			fc:        convBlocks(p.OC, p.N, p.OD()*p.OH(), p.OW()),
			bdc:       convBlocks(p.IC, p.N, p.ID*p.IH, p.IW),
			bfc:       BlocksPerSegment(pr.Fast, p2, false),
			intensity: pr.Fast.Intensity(false),
			dwBytes:   dwBytes,
			dataBytes: int64(p.XShape().Elems()+p.DYShape().Elems())*4 + dwBytes,
			flops:     p.FLOPs(), outputs: p.N * p.OD() * p.OH() * p.OW(),
		}, o.hw)
	}
	// The segment shape is computed on the flattened plane; padding rows
	// are interleaved (each o_h strip repeats per o_d), so the minimum
	// segment height guard uses p_H only.
	return &Config3D{Params: p, Config: newPlan(p2, pr, zHat, o.fp16)}, nil
}

// flat2D is the 2-D plan geometry of a 3-D layer: O_D·O_H output rows,
// F_D·F_H filter rows, width and channel axes unchanged, p_H kept for the
// segment-height guard. Its ∇Y and ∇W shapes are the 3-D tensors' layouts
// exactly; its I_H only makes O_H() come out as O_D·O_H — X is addressed
// through rows3D, never through this geometry.
func flat2D(p conv.Params3D) conv.Params {
	ohFlat, fhFlat := p.OD()*p.OH(), p.FD*p.FH
	return conv.Params{
		N:  p.N,
		IH: ohFlat + fhFlat - 1 - 2*p.PH, // OH() == ohFlat
		IW: p.IW,
		FH: fhFlat, FW: p.FW,
		IC: p.IC, OC: p.OC,
		PH: p.PH, PW: p.PW,
	}
}

// rows3D is the row map of a 3-D layer (see rowMap).
func rows3D(p conv.Params3D) rowMap {
	return rowMap{oh: p.OH(), fh: p.FH, ih: p.IH, id: p.ID, ph: p.PH, pd: p.PD}
}

// Execute3D runs the fused FP32 3-D pipeline: the 2-D pipeline on the
// flattened plan, its (segment, f_d·F_H + f_h, O_C block, width-tile)
// units writing disjoint bucket regions of the 3-D ∇W.
func Execute3D(cfg *Config3D, x, dy *tensor.Float325) *tensor.Float325 {
	p := cfg.Params
	if x.Shape != p.XShape() || dy.Shape != p.DYShape() {
		panic("core: Execute3D operand shape mismatch")
	}
	ops := operands{rows: rows3D(p), x: operand{f32: x.Data}, dy: operand{f32: dy.Data}}
	dw, _ := execute(cfg.Config, nil, ops, fp32Storage, nil, nil)
	return &tensor.Float325{Shape: p.DWShape(), Data: dw.Data}
}

// BackwardFilter3D is the one-call volumetric API.
func BackwardFilter3D(p conv.Params3D, x, dy *tensor.Float325, opts ...Option) (*tensor.Float325, error) {
	cfg, err := Configure3D(p, opts...)
	if err != nil {
		return nil, err
	}
	return Execute3D(cfg, x, dy), nil
}
