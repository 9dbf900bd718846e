// Package winnf implements a non-fused 2-D Winograd backward-filter
// convolution — the stand-in for cuDNN's sole Winograd BFC (Cu-WinNF),
// which supports 3×3 and 5×5 filter gradients.
//
// The wgrad formulation swaps the Winograd roles: the output gradients ∇Y
// act as the filter operand, split into r×r tiles (r = 4, matching the
// paper's footnote 4: complexity reductions of 4× for 3×3 and 6.25× for
// 5×5 come from nested F(3,4) and F(5,4)), while X supplies overlapping
// α×α input tiles (α = F+3). Per tile, 2-D Winograd produces an F×F
// partial gradient; partials are accumulated over all tiles and the batch.
//
// "Non-fused" is the defining property: the four stages — filter transform
// (FT), input transform (IT), element-wise multiplication (EWM, executed as
// α² batched GEMMs) and output transform (OT) — run as separate kernels
// with every intermediate materialized in global memory. Those
// intermediates are exactly the 2.23×–5.9× data-size workspace the paper's
// Table 2 reports, and the extra I/O is why fused WinRS wins despite a
// smaller complexity reduction.
package winnf

import (
	"fmt"

	"winrs/internal/conv"
	"winrs/internal/fp16"
	"winrs/internal/sched"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

// TileR is the ∇Y tile edge used by the non-fused algorithm.
const TileR = 4

// Supported reports whether the baseline covers the layer: square filter
// gradients of size 3×3 or 5×5 (the Cu-WinNF envelope).
func Supported(p conv.Params) bool {
	return p.FH == p.FW && (p.FH == 3 || p.FH == 5)
}

// tiles returns the tile grid extents (tiles along H and W, zero-padding
// ∇Y up to a multiple of TileR — the redundant computation the paper's
// filter split avoids).
func tilesOf(p conv.Params) (th, tw int) {
	return (p.OH() + TileR - 1) / TileR, (p.OW() + TileR - 1) / TileR
}

// Workspace returns the bytes of global-memory intermediates the non-fused
// pipeline materializes: transformed ∇Y tiles (N·T·OC·α²), transformed X
// tiles (N·T·IC·α²) and the EWM output (α²·OC·IC), all float32.
func Workspace(p conv.Params) int64 {
	if !Supported(p) {
		return 0
	}
	alpha := p.FH + TileR - 1
	a2 := int64(alpha * alpha)
	th, tw := tilesOf(p)
	t := int64(th) * int64(tw)
	n := int64(p.N)
	return (n*t*int64(p.OC)*a2 + n*t*int64(p.IC)*a2 + a2*int64(p.OC)*int64(p.IC)) * 4
}

// Accel returns the time-complexity reduction factor of the nested
// F(F,4)×F(F,4) algorithm: (F·4/α)².
func Accel(p conv.Params) float64 {
	alpha := float64(p.FH + TileR - 1)
	a1 := float64(p.FH) * TileR / alpha
	return a1 * a1
}

// BackwardFilter computes ∇W with the four-stage non-fused FP32 pipeline.
// It panics for unsupported layer shapes (call Supported first).
func BackwardFilter(p conv.Params, x, dy *tensor.Float32) *tensor.Float32 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if !Supported(p) {
		panic(fmt.Sprintf("winnf: unsupported filter gradient %dx%d", p.FH, p.FW))
	}
	if x.Shape != p.XShape() || dy.Shape != p.DYShape() {
		panic("winnf: operand shape mismatch")
	}
	f := p.FH
	tr := winograd.Generate(f, TileR)
	alpha := tr.Alpha
	a2 := alpha * alpha
	th, tw := tilesOf(p)
	nt := p.N * th * tw

	// Stage 1 (FT kernel): transform every ∇Y tile per output channel.
	// Layout: [a2][nt][OC] so each EWM GEMM reads a contiguous plane.
	ft := make([]float32, a2*nt*p.OC)
	sched.For(nt, func(ti int) {
		n := ti / (th * tw)
		rem := ti % (th * tw)
		ty, tx := rem/tw, rem%tw
		tile := make([]float64, TileR*TileR)
		for oc := 0; oc < p.OC; oc++ {
			for i := 0; i < TileR; i++ {
				for j := 0; j < TileR; j++ {
					oy, ox := ty*TileR+i, tx*TileR+j
					if oy < p.OH() && ox < p.OW() {
						tile[i*TileR+j] = float64(dy.At(n, oy, ox, oc))
					} else {
						tile[i*TileR+j] = 0 // zero padding of ragged tiles
					}
				}
			}
			tt := transform2D(tr.G, tile, TileR, TileR)
			for k := 0; k < a2; k++ {
				ft[(k*nt+ti)*p.OC+oc] = float32(tt[k])
			}
		}
	})

	// Stage 2 (IT kernel): transform every overlapping X tile per input
	// channel. X tile (ty,tx) spans rows TileR·ty−PH … +α and likewise for
	// columns, with implicit zero padding.
	it := make([]float32, a2*nt*p.IC)
	sched.For(nt, func(ti int) {
		n := ti / (th * tw)
		rem := ti % (th * tw)
		ty, tx := rem/tw, rem%tw
		tile := make([]float64, a2)
		for ic := 0; ic < p.IC; ic++ {
			for i := 0; i < alpha; i++ {
				ih := ty*TileR + i - p.PH
				for j := 0; j < alpha; j++ {
					iw := tx*TileR + j - p.PW
					if ih >= 0 && ih < p.IH && iw >= 0 && iw < p.IW {
						tile[i*alpha+j] = float64(x.At(n, ih, iw, ic))
					} else {
						tile[i*alpha+j] = 0
					}
				}
			}
			tt := transform2DT(tr.D, tile, alpha, alpha)
			for k := 0; k < a2; k++ {
				it[(k*nt+ti)*p.IC+ic] = float32(tt[k])
			}
		}
	})

	// Stage 3 (EWM kernel): α² batched GEMMs reducing over the N·T axis:
	// ewm[k][oc][ic] = Σ_t ft[k][t][oc] · it[k][t][ic]. Sequential float32
	// accumulation over the long axis, as the non-fused baseline does.
	ewm := make([]float32, a2*p.OC*p.IC)
	sched.For(a2, func(k int) {
		fPlane := ft[k*nt*p.OC : (k+1)*nt*p.OC]
		iPlane := it[k*nt*p.IC : (k+1)*nt*p.IC]
		out := ewm[k*p.OC*p.IC : (k+1)*p.OC*p.IC]
		for t := 0; t < nt; t++ {
			frow := fPlane[t*p.OC : (t+1)*p.OC]
			irow := iPlane[t*p.IC : (t+1)*p.IC]
			for oc, fv := range frow {
				if fv == 0 {
					continue
				}
				dst := out[oc*p.IC : (oc+1)*p.IC]
				for ic, iv := range irow {
					dst[ic] += fv * iv
				}
			}
		}
	})

	// Stage 4 (OT kernel): per (oc, ic), output-transform the α² vector
	// into the F×F filter gradient.
	dw := tensor.NewFloat32(p.DWShape())
	sched.For(p.OC*p.IC, func(idx int) {
		oc, ic := idx/p.IC, idx%p.IC
		acc := make([]float64, a2)
		for k := 0; k < a2; k++ {
			acc[k] = float64(ewm[k*p.OC*p.IC+oc*p.IC+ic])
		}
		y := transform2DT(tr.A, acc, alpha, alpha)
		for fh := 0; fh < f; fh++ {
			for fw := 0; fw < f; fw++ {
				dw.Set(oc, fh, fw, ic, float32(y[fh*f+fw]))
			}
		}
	})
	return dw
}

// BackwardFilterHalf is the FP16 variant (Cu-WinNF FP16 supports only 3×3
// filter gradients). It stores transformed tiles in binary16 and, unlike
// WinRS, accumulates the EWM in binary16 as well — modelling the legacy
// HMMA path whose accuracy collapses at large accumulation lengths (the
// paper measures Cu-WinNF FP16 MARE up to 6.52e-1).
func BackwardFilterHalf(p conv.Params, x, dy *tensor.Half) *tensor.Float32 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if !(p.FH == 3 && p.FW == 3) {
		panic("winnf: FP16 path supports only 3x3 filter gradients")
	}
	f := p.FH
	tr := winograd.Generate(f, TileR)
	alpha := tr.Alpha
	a2 := alpha * alpha
	th, tw := tilesOf(p)
	nt := p.N * th * tw

	// Bulk-decode both binary16 operands once through the LUT instead of a
	// scalar conversion per tile access — the decoded float32 values are
	// exactly what At returned, so every transform input is unchanged.
	dyf := dy.ToFloat32()
	xf := x.ToFloat32()

	ft := make([]fp16.Bits, a2*nt*p.OC)
	sched.For(nt, func(ti int) {
		n := ti / (th * tw)
		rem := ti % (th * tw)
		ty, tx := rem/tw, rem%tw
		tile := make([]float64, TileR*TileR)
		ttF := make([]float32, a2)
		ttH := make([]fp16.Bits, a2)
		for oc := 0; oc < p.OC; oc++ {
			for i := 0; i < TileR; i++ {
				for j := 0; j < TileR; j++ {
					oy, ox := ty*TileR+i, tx*TileR+j
					if oy < p.OH() && ox < p.OW() {
						tile[i*TileR+j] = float64(dyf.At(n, oy, ox, oc))
					} else {
						tile[i*TileR+j] = 0
					}
				}
			}
			tt := transform2D(tr.G, tile, TileR, TileR)
			// Contiguous bulk encode, then scatter the bits into the
			// [a2][nt][OC] planes (FromFloat64 narrows to float32 first, so
			// the table encoder sees the same inputs).
			for k := 0; k < a2; k++ {
				ttF[k] = float32(tt[k])
			}
			fp16.EncodeSlice(ttH, ttF)
			for k := 0; k < a2; k++ {
				ft[(k*nt+ti)*p.OC+oc] = ttH[k]
			}
		}
	})

	it := make([]fp16.Bits, a2*nt*p.IC)
	sched.For(nt, func(ti int) {
		n := ti / (th * tw)
		rem := ti % (th * tw)
		ty, tx := rem/tw, rem%tw
		tile := make([]float64, a2)
		ttF := make([]float32, a2)
		ttH := make([]fp16.Bits, a2)
		for ic := 0; ic < p.IC; ic++ {
			for i := 0; i < alpha; i++ {
				ih := ty*TileR + i - p.PH
				for j := 0; j < alpha; j++ {
					iw := tx*TileR + j - p.PW
					if ih >= 0 && ih < p.IH && iw >= 0 && iw < p.IW {
						tile[i*alpha+j] = float64(xf.At(n, ih, iw, ic))
					} else {
						tile[i*alpha+j] = 0
					}
				}
			}
			tt := transform2DT(tr.D, tile, alpha, alpha)
			for k := 0; k < a2; k++ {
				ttF[k] = float32(tt[k])
			}
			fp16.EncodeSlice(ttH, ttF)
			for k := 0; k < a2; k++ {
				it[(k*nt+ti)*p.IC+ic] = ttH[k]
			}
		}
	})

	// EWM in binary16 with binary16 accumulation.
	ewm := make([]fp16.Bits, a2*p.OC*p.IC)
	sched.For(a2, func(k int) {
		fPlane := ft[k*nt*p.OC : (k+1)*nt*p.OC]
		iPlane := it[k*nt*p.IC : (k+1)*nt*p.IC]
		out := ewm[k*p.OC*p.IC : (k+1)*p.OC*p.IC]
		for t := 0; t < nt; t++ {
			frow := fPlane[t*p.OC : (t+1)*p.OC]
			irow := iPlane[t*p.IC : (t+1)*p.IC]
			for oc, fv := range frow {
				if fv == 0 {
					continue
				}
				dst := out[oc*p.IC : (oc+1)*p.IC]
				for ic, iv := range irow {
					dst[ic] = fp16.FMA(fv, iv, dst[ic])
				}
			}
		}
	})

	// Bulk-decode the EWM output once; the OT gathers float32 values from
	// the decoded planes (ToFloat64 widens through the same float32).
	ewmF := make([]float32, len(ewm))
	fp16.DecodeSlice(ewmF, ewm)

	dw := tensor.NewFloat32(p.DWShape())
	sched.For(p.OC*p.IC, func(idx int) {
		oc, ic := idx/p.IC, idx%p.IC
		acc := make([]float64, a2)
		for k := 0; k < a2; k++ {
			acc[k] = float64(ewmF[k*p.OC*p.IC+oc*p.IC+ic])
		}
		y := transform2DT(tr.A, acc, alpha, alpha)
		for fh := 0; fh < f; fh++ {
			for fw := 0; fw < f; fw++ {
				dw.Set(oc, fh, fw, ic, float32(y[fh*f+fw]))
			}
		}
	})
	return dw
}

// transform2D computes M·T·Mᵀ for a rows×cols tile T (M applied from both
// sides, the FT pattern G·W·Gᵀ).
func transform2D(m *winograd.Mat, tile []float64, rows, cols int) []float64 {
	// tmp = M·T (m.Rows×cols)
	tmp := make([]float64, m.Rows*cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < rows; k++ {
			v := m.At(i, k)
			if v == 0 {
				continue
			}
			for j := 0; j < cols; j++ {
				tmp[i*cols+j] += v * tile[k*cols+j]
			}
		}
	}
	// out = tmp·Mᵀ (m.Rows×m.Rows)
	out := make([]float64, m.Rows*m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Rows; j++ {
			var s float64
			for k := 0; k < cols; k++ {
				s += tmp[i*cols+k] * m.At(j, k)
			}
			out[i*m.Rows+j] = s
		}
	}
	return out
}

// transform2DT computes Mᵀ·T·M for a rows×cols tile T (the IT/OT pattern
// Dᵀ·X·D and Aᵀ·Ŷ·A).
func transform2DT(m *winograd.Mat, tile []float64, rows, cols int) []float64 {
	// tmp = Mᵀ·T (m.Cols×cols)
	tmp := make([]float64, m.Cols*cols)
	for k := 0; k < rows; k++ {
		for i := 0; i < m.Cols; i++ {
			v := m.At(k, i)
			if v == 0 {
				continue
			}
			for j := 0; j < cols; j++ {
				tmp[i*cols+j] += v * tile[k*cols+j]
			}
		}
	}
	// out = tmp·M (m.Cols×m.Cols)
	out := make([]float64, m.Cols*m.Cols)
	for i := 0; i < m.Cols; i++ {
		for j := 0; j < m.Cols; j++ {
			var s float64
			for k := 0; k < cols; k++ {
				s += tmp[i*cols+k] * m.At(k, j)
			}
			out[i*m.Cols+j] = s
		}
	}
	return out
}
