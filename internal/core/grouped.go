package core

import (
	"winrs/internal/conv"
	"winrs/internal/fp16"
	"winrs/internal/sched"
	"winrs/internal/tensor"
)

// Grouped execution (G > 1) runs the adapted per-group plan (Config.group)
// once per channel group. NHWC keeps channels innermost, so one group's
// operands are strided row-gathers (rows of width I_C/G at stride I_C);
// the per-group ∇W block, by contrast, is a contiguous slab of the full
// gradient (∇W is O_C-major and each group owns a contiguous O_C/G range),
// so outputs are written through zero-copy views.
//
// The dispatch (groupedinterleave.go) fuses all G groups into ONE sched
// batch over a (group, unit) index space with a small ring of in-flight
// staging slots, recovering pool occupancy when per-group work is tiny
// (depthwise). The tiny-workspace property the paper's reduce-split buys
// shrinks by ~G²/ring vs the ungrouped plan, and depthwise (G == I_C) is
// its limiting case.

// sliceChannels gathers channels [off, off+width) of every row of src
// (rows × srcC, dense) into dst (rows × width, dense). A full-width slice
// (width == srcC, the G == 1 fallthrough and full-width staging) is one
// contiguous block, so it collapses to a single bulk copy.
func sliceChannels[E any](dst, src []E, rows, srcC, off, width int) {
	if width == srcC {
		copy(dst[:rows*width], src[off:off+rows*width])
		return
	}
	for r := 0; r < rows; r++ {
		copy(dst[r*width:(r+1)*width], src[r*srcC+off:r*srcC+off+width])
	}
}

// scatterChannels writes src (rows × width, dense) into channels
// [off, off+width) of every row of dst (rows × dstC, dense) — the inverse
// of sliceChannels, with the same full-width bulk-copy fast path.
func scatterChannels[E any](dst, src []E, rows, dstC, off, width int) {
	if width == dstC {
		copy(dst[off:off+rows*width], src[:rows*width])
		return
	}
	for r := 0; r < rows; r++ {
		copy(dst[r*dstC+off:r*dstC+off+width], src[r*width:(r+1)*width])
	}
}

// sliceDecodeChannels is sliceChannels fused with the binary16 → float32
// bulk decode: the gathered group slice lands directly in its decoded
// float32 mirror (the FP16 path's operand form). Decoding is exact, so
// the values are bit-identical to gather-then-decode.
func sliceDecodeChannels(dst []float32, src []fp16.Bits, rows, srcC, off, width int) {
	if width == srcC {
		fp16.DecodeSlice(dst[:rows*width], src[off:off+rows*width])
		return
	}
	for r := 0; r < rows; r++ {
		fp16.DecodeSlice(dst[r*width:(r+1)*width], src[r*srcC+off:r*srcC+off+width])
	}
}

// groupSlab returns the zero-copy view of group gi's contiguous ∇W block.
func groupSlab(dst *tensor.Float32, shape tensor.Shape, gi int) *tensor.Float32 {
	n := shape.Elems()
	return &tensor.Float32{Shape: shape, Data: dst.Data[gi*n : (gi+1)*n : (gi+1)*n]}
}

// executeGroupedIn is the grouped branch of execute (which has already
// checked the operand shapes and supplied dst). Every storage policy runs
// the regular per-group pipeline, so the eq.(7) error model applies per
// group with the reduced C = I_C/G depth.
func executeGroupedIn(cfg *Config, ws *Workspace, ops operands, st storage, dst *tensor.Float32, cancel *sched.Batch) (*tensor.Float32, bool) {
	if ws == nil {
		ws = NewWorkspace(cfg)
	}
	if !runGroupedInterleaved(cfg, ws, ops, st, dst, cancel) {
		return nil, false
	}
	return dst, true
}

// forwardGrouped runs the fused forward pass per group: gather the group's
// input channels, run the ungrouped kernel against the group's contiguous
// filter slab, scatter its output channels back.
func forwardGrouped(p conv.Params, x, w *tensor.Float32) (*tensor.Float32, error) {
	g, icg, ocg := p.G(), p.ICG(), p.OCG()
	pg := p
	pg.IC, pg.OC, pg.Groups = icg, ocg, 0
	xRows := p.N * p.IH * p.IW
	yRows := p.N * p.OH() * p.OW()
	xg := &tensor.Float32{Shape: pg.XShape(), Data: make([]float32, xRows*icg)}
	y := tensor.NewFloat32(p.DYShape())
	slab := pg.DWShape()
	for gi := 0; gi < g; gi++ {
		sliceChannels(xg.Data, x.Data, xRows, p.IC, gi*icg, icg)
		yg, err := Forward(pg, xg, groupSlab(w, slab, gi))
		if err != nil {
			return nil, err
		}
		scatterChannels(y.Data, yg.Data, yRows, p.OC, gi*ocg, ocg)
	}
	return y, nil
}
