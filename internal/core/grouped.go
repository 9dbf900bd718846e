package core

import (
	"winrs/internal/conv"
	"winrs/internal/fp16"
	"winrs/internal/tensor"
)

// Channel-group helpers. NHWC keeps channels innermost, so one group's
// operands are strided row-gathers (rows of width I_C/G at stride I_C);
// the per-group ∇W block, by contrast, is a contiguous slab of the full
// gradient (∇W is O_C-major and each group owns a contiguous O_C/G range).
// Grouped BFC needs no staging: the dense unit grid gathers each group's
// channels straight from the whole-layer operand (see segmentTile), and
// depthwise plans run channel-wide (see depthwise.go).

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
