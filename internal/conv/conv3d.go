package conv

import (
	"fmt"

	"winrs/internal/tensor"
)

// Params3D describes a volumetric (3-D) convolutional layer with stride 1
// and symmetric zero padding — the substrate for the paper's N-D BFC
// extension (§3 Level 2). Tensors are NDHWC.
type Params3D struct {
	N          int // batch
	ID, IH, IW int // input depth/height/width
	FD, FH, FW int // filter extents
	IC, OC     int // channels
	PD, PH, PW int // padding
}

// OD returns the output depth.
func (p Params3D) OD() int { return p.ID + 2*p.PD - p.FD + 1 }

// OH returns the output height.
func (p Params3D) OH() int { return p.IH + 2*p.PH - p.FH + 1 }

// OW returns the output width.
func (p Params3D) OW() int { return p.IW + 2*p.PW - p.FW + 1 }

// Validate checks the geometry, and that its shape arithmetic cannot
// overflow (see sizeOverflow).
func (p Params3D) Validate() error {
	switch {
	case p.N < 1 || p.IC < 1 || p.OC < 1:
		return fmt.Errorf("conv: non-positive batch or channels in %+v", p)
	case p.ID < 1 || p.IH < 1 || p.IW < 1 || p.FD < 1 || p.FH < 1 || p.FW < 1:
		return fmt.Errorf("conv: non-positive extents in %+v", p)
	case p.PD < 0 || p.PH < 0 || p.PW < 0:
		return fmt.Errorf("conv: negative padding in %+v", p)
	case padOverflows(p.ID, p.PD) || padOverflows(p.IH, p.PH) || padOverflows(p.IW, p.PW):
		return fmt.Errorf("conv: padded extent overflows in %+v", p)
	case p.OD() < 1 || p.OH() < 1 || p.OW() < 1:
		return fmt.Errorf("conv: empty output in %+v", p)
	}
	if what := sizeOverflow(
		[]int{p.N, p.ID, p.IH, p.IW, p.IC},
		[]int{p.N, p.OD(), p.OH(), p.OW(), p.OC},
		[]int{p.OC, p.FD, p.FH, p.FW, p.IC},
		[]int{2, p.OC, p.FD, p.FH, p.FW, p.IC, p.OD(), p.OH(), p.OW(), p.N}); what != "" {
		return fmt.Errorf("conv: %s overflows in %+v", what, p)
	}
	return nil
}

// XShape returns N×I_D×I_H×I_W×I_C.
func (p Params3D) XShape() tensor.Shape5 {
	return tensor.Shape5{N: p.N, D: p.ID, H: p.IH, W: p.IW, C: p.IC}
}

// DYShape returns N×O_D×O_H×O_W×O_C.
func (p Params3D) DYShape() tensor.Shape5 {
	return tensor.Shape5{N: p.N, D: p.OD(), H: p.OH(), W: p.OW(), C: p.OC}
}

// DWShape returns O_C×F_D×F_H×F_W×I_C (N slot holds O_C).
func (p Params3D) DWShape() tensor.Shape5 {
	return tensor.Shape5{N: p.OC, D: p.FD, H: p.FH, W: p.FW, C: p.IC}
}

// FLOPs returns the direct 3-D BFC complexity.
func (p Params3D) FLOPs() int64 {
	return 2 * int64(p.OC) * int64(p.FD) * int64(p.FH) * int64(p.FW) *
		int64(p.IC) * int64(p.OD()) * int64(p.OH()) * int64(p.OW()) * int64(p.N)
}

// BackwardFilter3DDirect64 is the float64 direct 3-D BFC ground truth:
//
//	∇W[oc,fd,fh,fw,ic] =
//	  Σ_{n,od,oh,ow} X[n, od+fd−pD, oh+fh−pH, ow+fw−pW, ic]·∇Y[n,od,oh,ow,oc]
func BackwardFilter3DDirect64(p Params3D, x, dy *tensor.Float645) *tensor.Float645 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if x.Shape != p.XShape() || dy.Shape != p.DYShape() {
		panic("conv: BackwardFilter3DDirect64 shape mismatch")
	}
	dw := tensor.NewFloat645(p.DWShape())
	od, oh, ow := p.OD(), p.OH(), p.OW()
	for oc := 0; oc < p.OC; oc++ {
		for fd := 0; fd < p.FD; fd++ {
			for fh := 0; fh < p.FH; fh++ {
				for fw := 0; fw < p.FW; fw++ {
					for ic := 0; ic < p.IC; ic++ {
						var s float64
						for n := 0; n < p.N; n++ {
							for zd := 0; zd < od; zd++ {
								id := zd + fd - p.PD
								if id < 0 || id >= p.ID {
									continue
								}
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
										s += x.At(n, id, ih, iw, ic) *
											dy.At(n, zd, y, xw, oc)
									}
								}
							}
						}
						dw.Set(oc, fd, fh, fw, ic, s)
					}
				}
			}
		}
	}
	return dw
}
