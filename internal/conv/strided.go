package conv

import (
	"fmt"

	"winrs/internal/tensor"
)

// StridedParams describes a strided convolutional layer. Strided
// convolutions (stride 2 downsampling layers in ResNet/VGG-style nets) are
// outside the paper's evaluation but inside its related work ([16], [20]:
// stride-2 Winograd via decomposition); the core package extends WinRS to
// them by phase decimation.
type StridedParams struct {
	N      int
	IH, IW int
	FH, FW int
	IC, OC int
	PH, PW int
	SH, SW int // strides; 0 is treated as 1

	// Groups partitions channels exactly as Params.Groups: 0 means 1.
	Groups int `json:"groups,omitempty"`
}

// G returns the effective group count (≥1).
func (p StridedParams) G() int {
	if p.Groups < 1 {
		return 1
	}
	return p.Groups
}

// ICG returns the per-group input-channel count I_C/G.
func (p StridedParams) ICG() int { return p.IC / p.G() }

// OCG returns the per-group output-channel count O_C/G.
func (p StridedParams) OCG() int { return p.OC / p.G() }

// StrideH returns the effective height stride (≥1).
func (p StridedParams) StrideH() int {
	if p.SH < 1 {
		return 1
	}
	return p.SH
}

// StrideW returns the effective width stride (≥1).
func (p StridedParams) StrideW() int {
	if p.SW < 1 {
		return 1
	}
	return p.SW
}

// OH returns the output height ⌊(I_H + 2p_H − F_H)/s_H⌋ + 1.
func (p StridedParams) OH() int {
	return (p.IH+2*p.PH-p.FH)/p.StrideH() + 1
}

// OW returns the output width.
func (p StridedParams) OW() int {
	return (p.IW+2*p.PW-p.FW)/p.StrideW() + 1
}

// Validate checks the geometry, and that its shape arithmetic cannot
// overflow (see sizeOverflow).
func (p StridedParams) Validate() error {
	switch {
	case p.N < 1 || p.IC < 1 || p.OC < 1:
		return fmt.Errorf("conv: non-positive batch or channels in %+v", p)
	case p.IH < 1 || p.IW < 1 || p.FH < 1 || p.FW < 1:
		return fmt.Errorf("conv: non-positive extents in %+v", p)
	case p.PH < 0 || p.PW < 0 || p.SH < 0 || p.SW < 0:
		return fmt.Errorf("conv: negative padding or stride in %+v", p)
	case padOverflows(p.IH, p.PH) || padOverflows(p.IW, p.PW):
		return fmt.Errorf("conv: padded extent overflows in %+v", p)
	case p.IH+2*p.PH < p.FH || p.IW+2*p.PW < p.FW:
		return fmt.Errorf("conv: filter larger than padded input in %+v", p)
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

// XShape returns N×I_H×I_W×I_C.
func (p StridedParams) XShape() tensor.Shape {
	return tensor.Shape{N: p.N, H: p.IH, W: p.IW, C: p.IC}
}

// DYShape returns N×O_H×O_W×O_C.
func (p StridedParams) DYShape() tensor.Shape {
	return tensor.Shape{N: p.N, H: p.OH(), W: p.OW(), C: p.OC}
}

// DWShape returns O_C×F_H×F_W×(I_C/G).
func (p StridedParams) DWShape() tensor.Shape {
	return tensor.Shape{N: p.OC, H: p.FH, W: p.FW, C: p.ICG()}
}

// Unit returns the equivalent stride-1 Params when both strides are 1.
func (p StridedParams) Unit() (Params, bool) {
	if p.StrideH() != 1 || p.StrideW() != 1 {
		return Params{}, false
	}
	return Params{N: p.N, IH: p.IH, IW: p.IW, FH: p.FH, FW: p.FW,
		IC: p.IC, OC: p.OC, PH: p.PH, PW: p.PW, Groups: p.Groups}, true
}

// BackwardFilterStridedDirect64 is the float64 strided BFC ground truth:
//
//	∇W[oc,fh,fw,ic] =
//	  Σ_{n,oh,ow} X[n, s_H·oh+fh−pH, s_W·ow+fw−pW, ic]·∇Y[n,oh,ow,oc]
func BackwardFilterStridedDirect64(p StridedParams, x, dy *tensor.Float64) *tensor.Float64 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if x.Shape != p.XShape() || dy.Shape != p.DYShape() {
		panic("conv: BackwardFilterStridedDirect64 shape mismatch")
	}
	sh, sw := p.StrideH(), p.StrideW()
	dw := tensor.NewFloat64(p.DWShape())
	oh, ow := p.OH(), p.OW()
	icg, ocg := p.ICG(), p.OCG()
	for oc := 0; oc < p.OC; oc++ {
		icBase := oc / ocg * icg
		for fh := 0; fh < p.FH; fh++ {
			for fw := 0; fw < p.FW; fw++ {
				for cg := 0; cg < icg; cg++ {
					var s float64
					for n := 0; n < p.N; n++ {
						for y := 0; y < oh; y++ {
							ih := sh*y + fh - p.PH
							if ih < 0 || ih >= p.IH {
								continue
							}
							for xw := 0; xw < ow; xw++ {
								iw := sw*xw + fw - p.PW
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

// ForwardStridedDirect64 is the float64 strided forward reference:
//
//	Y[n,oh,ow,oc] = Σ_{fh,fw,ic} X[n, s_H·oh+fh−pH, s_W·ow+fw−pW, ic]·W[oc,fh,fw,ic]
func ForwardStridedDirect64(p StridedParams, x, w *tensor.Float64) *tensor.Float64 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if x.Shape != p.XShape() || w.Shape != p.DWShape() {
		panic("conv: ForwardStridedDirect64 shape mismatch")
	}
	sh, sw := p.StrideH(), p.StrideW()
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
						ih := sh*yy + fh - p.PH
						if ih < 0 || ih >= p.IH {
							continue
						}
						for fw := 0; fw < p.FW; fw++ {
							iw := sw*xx + fw - p.PW
							if iw < 0 || iw >= p.IW {
								continue
							}
							for cg := 0; cg < icg; cg++ {
								s += x.At(n, ih, iw, icBase+cg) * w.At(oc, fh, fw, cg)
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
