// Package conv defines the convolution-layer geometry shared by every
// algorithm in this repository and provides direct (naive) implementations
// of the three convolution passes — forward (FC), backward-data (BDC) and
// backward-filter (BFC) — in float64 (the accuracy ground truth) and
// parallel float32.
//
// All tensors are NHWC. Backward-filter convolution, the paper's target
// operation, computes filter gradients
//
//	∇W[oc,fh,fw,ic] = Σ_{n,oh,ow} X[n, oh+fh-pH, ow+fw-pW, ic] · ∇Y[n,oh,ow,oc]
//
// i.e. a correlation of the input feature maps with the output gradients
// acting as a large O_H×O_W "filter" that slides over only F_H×F_W
// positions — the large-filter/small-output regime of the paper's Figure 1.
package conv

import (
	"fmt"
	"math"

	"winrs/internal/sched"
	"winrs/internal/tensor"
)

// Params describes one convolutional layer (stride 1, symmetric zero
// padding), using the paper's Table 1 notation.
type Params struct {
	N      int // batch size
	IH, IW int // input height/width
	FH, FW int // filter (gradient) height/width
	IC, OC int // input/output channels
	PH, PW int // zero padding along height/width

	// Groups partitions the channels into G independent convolutions:
	// group g connects input channels [g·I_C/G, (g+1)·I_C/G) to output
	// channels [g·O_C/G, (g+1)·O_C/G), and each filter carries only
	// I_C/G channels. Zero means 1 (ungrouped — the legacy geometry);
	// G == I_C is depthwise (one input channel per group). The json tag
	// keeps the serve wire format byte-identical for ungrouped layers.
	Groups int `json:"groups,omitempty"`
}

// G returns the effective group count (≥1).
func (p Params) G() int {
	if p.Groups < 1 {
		return 1
	}
	return p.Groups
}

// ICG returns the per-group input-channel count I_C/G — the channel depth
// of each filter.
func (p Params) ICG() int { return p.IC / p.G() }

// OCG returns the per-group output-channel count O_C/G.
func (p Params) OCG() int { return p.OC / p.G() }

// OH returns the output-gradient height O_H = I_H + 2·p_H − F_H + 1.
func (p Params) OH() int { return p.IH + 2*p.PH - p.FH + 1 }

// OW returns the output-gradient width O_W = I_W + 2·p_W − F_W + 1.
func (p Params) OW() int { return p.IW + 2*p.PW - p.FW + 1 }

// Validate checks the geometry for consistency, and that its shape
// arithmetic cannot overflow (see sizeOverflow).
func (p Params) Validate() error {
	switch {
	case p.N < 1 || p.IC < 1 || p.OC < 1:
		return fmt.Errorf("conv: non-positive batch or channels in %+v", p)
	case p.IH < 1 || p.IW < 1 || p.FH < 1 || p.FW < 1:
		return fmt.Errorf("conv: non-positive spatial extents in %+v", p)
	case p.PH < 0 || p.PW < 0:
		return fmt.Errorf("conv: negative padding in %+v", p)
	case padOverflows(p.IH, p.PH) || padOverflows(p.IW, p.PW):
		return fmt.Errorf("conv: padded extent overflows in %+v", p)
	case p.OH() < 1 || p.OW() < 1:
		return fmt.Errorf("conv: empty output %dx%d in %+v", p.OH(), p.OW(), p)
	case p.Groups < 0:
		return fmt.Errorf("conv: negative group count in %+v", p)
	case p.IC%p.G() != 0 || p.OC%p.G() != 0:
		return fmt.Errorf("conv: groups %d must divide IC %d and OC %d",
			p.G(), p.IC, p.OC)
	}
	if what := sizeOverflow(
		[]int{p.N, p.IH, p.IW, p.IC},
		[]int{p.N, p.OH(), p.OW(), p.OC},
		[]int{p.OC, p.FH, p.FW, p.ICG()},
		[]int{2, p.OC, p.FH, p.FW, p.ICG(), p.OH(), p.OW(), p.N}); what != "" {
		return fmt.Errorf("conv: %s overflows in %+v", what, p)
	}
	return nil
}

// padOverflows reports whether the padded extent in + 2·pad of a valid
// extent and padding overflows an int.
func padOverflows(in, pad int) bool { return pad > (math.MaxInt-in)/2 }

// sizeOverflow names the first figure of a geometry's shape arithmetic
// that overflows, or returns "": the X, ∇Y and ∇W element counts (the
// positive extents x, dy and dw, multiplied as ints), the FP32 data size
// 4·(|X| + |∇Y| + |∇W|) bytes and the direct FLOP count (the positive
// factors flops), both int64s. Every size a plan derives from a
// validated geometry is then exact.
func sizeOverflow(x, dy, dw, flops []int) string {
	var elems [3]int64
	for i, dims := range [3][]int{x, dy, dw} {
		n, ok := product(math.MaxInt, dims)
		if !ok {
			return [3]string{"the X element count", "the ∇Y element count", "the ∇W element count"}[i]
		}
		elems[i] = n
	}
	const maxElems = math.MaxInt64 / 4 // FP32 elements whose bytes fit an int64
	if ex, ey := elems[0], elems[1]; ex > maxElems || ey > maxElems-ex || elems[2] > maxElems-ex-ey {
		return "the FP32 data size"
	}
	if _, ok := product(math.MaxInt64, flops); !ok {
		return "the FLOP count"
	}
	return ""
}

// product multiplies positive factors and reports whether every partial
// product stays within limit.
func product(limit int64, fs []int) (int64, bool) {
	prod := int64(1)
	for _, f := range fs {
		if int64(f) > limit/prod {
			return 0, false
		}
		prod *= int64(f)
	}
	return prod, true
}

// XShape returns the input feature-map shape N×I_H×I_W×I_C.
func (p Params) XShape() tensor.Shape {
	return tensor.Shape{N: p.N, H: p.IH, W: p.IW, C: p.IC}
}

// DYShape returns the output-gradient shape N×O_H×O_W×O_C.
func (p Params) DYShape() tensor.Shape {
	return tensor.Shape{N: p.N, H: p.OH(), W: p.OW(), C: p.OC}
}

// DWShape returns the filter-gradient shape O_C×F_H×F_W×(I_C/G) (stored
// with N standing in for O_C in the generic Shape type). Each filter sees
// only its own group's input channels, so the channel depth is I_C/G.
func (p Params) DWShape() tensor.Shape {
	return tensor.Shape{N: p.OC, H: p.FH, W: p.FW, C: p.ICG()}
}

// FLOPs returns the BFC time complexity 2·O_C·F_H·F_W·(I_C/G)·O_H·O_W·N
// used by the paper's throughput formula; grouping divides the C-reduction
// by G.
func (p Params) FLOPs() int64 {
	return 2 * int64(p.OC) * int64(p.FH) * int64(p.FW) * int64(p.ICG()) *
		int64(p.OH()) * int64(p.OW()) * int64(p.N)
}

// DataBytes32 returns the FP32 data size (X + ∇Y + ∇W) in bytes — the
// paper's reference quantity for workspace ratios.
func (p Params) DataBytes32() int64 {
	return tensor.Bytes32(p.XShape()) + tensor.Bytes32(p.DYShape()) +
		tensor.Bytes32(p.DWShape())
}

// DataBytes16 returns the FP16 data size in bytes.
func (p Params) DataBytes16() int64 {
	return tensor.Bytes16(p.XShape()) + tensor.Bytes16(p.DYShape()) +
		tensor.Bytes16(p.DWShape())
}

// String formats the layer compactly. Grouped layers carry a G suffix;
// ungrouped layers keep the legacy format so existing bench/report keys
// are unchanged.
func (p Params) String() string {
	s := fmt.Sprintf("N%d X%dx%dx%d F%dx%d OC%d P%d,%d",
		p.N, p.IH, p.IW, p.IC, p.FH, p.FW, p.OC, p.PH, p.PW)
	if p.G() > 1 {
		s += fmt.Sprintf(" G%d", p.G())
	}
	return s
}

// xAt reads X with implicit zero padding: coordinates outside the input
// return 0.
func xAt(x *tensor.Float64, n, h, w, c int) float64 {
	if h < 0 || h >= x.Shape.H || w < 0 || w >= x.Shape.W {
		return 0
	}
	return x.At(n, h, w, c)
}

func xAt32(x *tensor.Float32, n, h, w, c int) float32 {
	if h < 0 || h >= x.Shape.H || w < 0 || w >= x.Shape.W {
		return 0
	}
	return x.At(n, h, w, c)
}

// BackwardFilterDirect64 computes ∇W from X and ∇Y by direct summation in
// float64. It is the single source of accuracy ground truth for every
// other BFC implementation in the repository.
func BackwardFilterDirect64(p Params, x *tensor.Float64, dy *tensor.Float64) *tensor.Float64 {
	checkShapes(p, x.Shape, dy.Shape)
	dw := tensor.NewFloat64(p.DWShape())
	oh, ow := p.OH(), p.OW()
	icg, ocg := p.ICG(), p.OCG()
	for oc := 0; oc < p.OC; oc++ {
		icBase := oc / ocg * icg // first input channel of oc's group
		for fh := 0; fh < p.FH; fh++ {
			for fw := 0; fw < p.FW; fw++ {
				for cg := 0; cg < icg; cg++ {
					var s float64
					for n := 0; n < p.N; n++ {
						for y := 0; y < oh; y++ {
							ih := y + fh - p.PH
							if ih < 0 || ih >= p.IH {
								continue
							}
							for xw := 0; xw < ow; xw++ {
								iw := xw + fw - p.PW
								if iw < 0 || iw >= p.IW {
									continue
								}
								s += x.At(n, ih, iw, icBase+cg) * dy.At(n, y, xw, oc)
							}
						}
					}
					dw.Set(oc, fh, fw, cg, s)
				}
			}
		}
	}
	return dw
}

// BackwardFilterDirect32 computes ∇W in float32 with parallelism over
// output channels; it models a straightforward direct-convolution kernel.
func BackwardFilterDirect32(p Params, x *tensor.Float32, dy *tensor.Float32) *tensor.Float32 {
	checkShapes(p, x.Shape, dy.Shape)
	dw := tensor.NewFloat32(p.DWShape())
	oh, ow := p.OH(), p.OW()
	icg, ocg := p.ICG(), p.OCG()
	sched.For(p.OC, func(oc int) {
		icBase := oc / ocg * icg
		for fh := 0; fh < p.FH; fh++ {
			for fw := 0; fw < p.FW; fw++ {
				for cg := 0; cg < icg; cg++ {
					var s float32
					for n := 0; n < p.N; n++ {
						for y := 0; y < oh; y++ {
							ih := y + fh - p.PH
							if ih < 0 || ih >= p.IH {
								continue
							}
							for xw := 0; xw < ow; xw++ {
								iw := xw + fw - p.PW
								if iw < 0 || iw >= p.IW {
									continue
								}
								s += x.At(n, ih, iw, icBase+cg) * dy.At(n, y, xw, oc)
							}
						}
					}
					dw.Set(oc, fh, fw, cg, s)
				}
			}
		}
	})
	return dw
}

// Forward64 computes the forward convolution Y = X ⊛ W in float64, with
// W shaped O_C×F_H×F_W×I_C. It backs the training substrate and the FC
// block-count estimates of Algorithm 1.
func Forward64(p Params, x *tensor.Float64, w *tensor.Float64) *tensor.Float64 {
	checkShapes(p, x.Shape, tensor.Shape{})
	if w.Shape != p.DWShape() {
		panic("conv: Forward64 filter shape mismatch")
	}
	y := tensor.NewFloat64(p.DYShape())
	oh, ow := p.OH(), p.OW()
	icg, ocg := p.ICG(), p.OCG()
	for n := 0; n < p.N; n++ {
		for yy := 0; yy < oh; yy++ {
			for xx := 0; xx < ow; xx++ {
				for oc := 0; oc < p.OC; oc++ {
					icBase := oc / ocg * icg
					var s float64
					for fh := 0; fh < p.FH; fh++ {
						for fw := 0; fw < p.FW; fw++ {
							for cg := 0; cg < icg; cg++ {
								s += xAt(x, n, yy+fh-p.PH, xx+fw-p.PW, icBase+cg) *
									w.At(oc, fh, fw, cg)
							}
						}
					}
					y.Set(n, yy, xx, oc, s)
				}
			}
		}
	}
	return y
}

// Forward32 is the parallel float32 forward convolution.
func Forward32(p Params, x *tensor.Float32, w *tensor.Float32) *tensor.Float32 {
	checkShapes(p, x.Shape, tensor.Shape{})
	if w.Shape != p.DWShape() {
		panic("conv: Forward32 filter shape mismatch")
	}
	y := tensor.NewFloat32(p.DYShape())
	oh, ow := p.OH(), p.OW()
	icg, ocg := p.ICG(), p.OCG()
	sched.For(p.N, func(n int) {
		for yy := 0; yy < oh; yy++ {
			for xx := 0; xx < ow; xx++ {
				for oc := 0; oc < p.OC; oc++ {
					icBase := oc / ocg * icg
					var s float32
					for fh := 0; fh < p.FH; fh++ {
						for fw := 0; fw < p.FW; fw++ {
							for cg := 0; cg < icg; cg++ {
								s += xAt32(x, n, yy+fh-p.PH, xx+fw-p.PW, icBase+cg) *
									w.At(oc, fh, fw, cg)
							}
						}
					}
					y.Set(n, yy, xx, oc, s)
				}
			}
		}
	})
	return y
}

// BackwardData32 computes ∇X from ∇Y and W in float32 (BDC): the full
// correlation of ∇Y with the transposed filter. It completes the layer
// triad for the training substrate.
func BackwardData32(p Params, dy *tensor.Float32, w *tensor.Float32) *tensor.Float32 {
	if dy.Shape != p.DYShape() {
		panic("conv: BackwardData32 dy shape mismatch")
	}
	if w.Shape != p.DWShape() {
		panic("conv: BackwardData32 filter shape mismatch")
	}
	dx := tensor.NewFloat32(p.XShape())
	oh, ow := p.OH(), p.OW()
	icg, ocg := p.ICG(), p.OCG()
	sched.For(p.N, func(n int) {
		for ih := 0; ih < p.IH; ih++ {
			for iw := 0; iw < p.IW; iw++ {
				for ic := 0; ic < p.IC; ic++ {
					ocBase, cg := ic/icg*ocg, ic%icg
					var s float32
					for fh := 0; fh < p.FH; fh++ {
						y := ih - fh + p.PH
						if y < 0 || y >= oh {
							continue
						}
						for fw := 0; fw < p.FW; fw++ {
							x := iw - fw + p.PW
							if x < 0 || x >= ow {
								continue
							}
							for oc := ocBase; oc < ocBase+ocg; oc++ {
								s += dy.At(n, y, x, oc) * w.At(oc, fh, fw, cg)
							}
						}
					}
					dx.Set(n, ih, iw, ic, s)
				}
			}
		}
	})
	return dx
}

func checkShapes(p Params, xs, dys tensor.Shape) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if xs != (tensor.Shape{}) && xs != p.XShape() {
		panic(fmt.Sprintf("conv: X shape %v, want %v", xs, p.XShape()))
	}
	if dys != (tensor.Shape{}) && dys != p.DYShape() {
		panic(fmt.Sprintf("conv: dY shape %v, want %v", dys, p.DYShape()))
	}
}
