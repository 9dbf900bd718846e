package core

import (
	"fmt"

	"winrs/internal/conv"
	"winrs/internal/tensor"
)

// BackwardFilterStrided extends WinRS to strided convolutions by phase
// decimation. Writing the filter coordinates as f_h = s_H·m_h + q_h and
// f_w = s_W·m_w + q_w, the strided gradient factors into s_H·s_W
// independent *stride-1* BFC problems over phase-decimated inputs:
//
//	∇W[s_H·m_h+q_h, s_W·m_w+q_w] = Σ_{oh,ow} X_q[oh+m_h, ow+m_w]·∇Y[oh,ow]
//	X_q[a, b] = X[s_H·a + q_h − p_H, s_W·b + q_w − p_W]   (0 outside)
//
// Each phase runs the full stride-1 WinRS pipeline (configuration
// adaptation, reduce-split, segmentation, Kahan reduction) on the
// decimated input, and the per-phase gradients interleave back into ∇W.
// Stride 1 short-circuits to the standard path. The same decimation is the
// stride-2 Winograd decomposition of the paper's related work ([16], [20]).
func BackwardFilterStrided(p conv.StridedParams, x, dy *tensor.Float32, opts ...Option) (*tensor.Float32, error) {
	return backwardFilterStrided("BackwardFilterStrided", p, x, dy,
		func(t *tensor.Float32) tensor.Shape { return t.Shape }, gatherPhaseInput, BackwardFilter, opts)
}

// backwardFilterStrided is the phase-decimation driver behind
// BackwardFilterStrided and BackwardFilterStridedHalf, generic over the
// operand tensor T (tensor.Float32 or tensor.Half): shape reads an
// operand's shape, gather materializes one phase's decimated input, and
// bfc is the stride-1 BFC every phase (and the stride-1 short cut) runs.
func backwardFilterStrided[T any](name string, p conv.StridedParams, x, dy *T,
	shape func(*T) tensor.Shape,
	gather func(conv.StridedParams, conv.Params, *T, int, int) *T,
	bfc func(conv.Params, *T, *T, ...Option) (*tensor.Float32, error),
	opts []Option) (*tensor.Float32, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if xs, dys := shape(x), shape(dy); xs != p.XShape() || dys != p.DYShape() {
		return nil, fmt.Errorf("core: %s operand shapes %v/%v, want %v/%v",
			name, xs, dys, p.XShape(), p.DYShape())
	}
	if unit, ok := p.Unit(); ok {
		return bfc(unit, x, dy, opts...)
	}
	sh, sw := p.StrideH(), p.StrideW()
	icg := p.ICG() // filter rows carry I_C/G channels under grouping
	dw := tensor.NewFloat32(p.DWShape())
	for qh := 0; qh < sh && qh < p.FH; qh++ {
		for qw := 0; qw < sw && qw < p.FW; qw++ {
			// The decimated stride-1 problem: padding is folded into the
			// decimated gather, so the phase problem is padding-free.
			pq, fqh, fqw := phaseGeometry(p, qh, qw)
			if err := pq.Validate(); err != nil {
				return nil, fmt.Errorf("core: phase (%d,%d) geometry: %w", qh, qw, err)
			}
			dwq, err := bfc(pq, gather(p, pq, x, qh, qw), dy, opts...)
			if err != nil {
				return nil, fmt.Errorf("core: phase (%d,%d): %w", qh, qw, err)
			}
			// Interleave the phase gradient back: ∇W[s·m+q] = ∇W_q[m].
			for oc := 0; oc < p.OC; oc++ {
				for mh := 0; mh < fqh; mh++ {
					for mw := 0; mw < fqw; mw++ {
						src := dwq.Shape.Index(oc, mh, mw, 0)
						dst := dw.Shape.Index(oc, sh*mh+qh, sw*mw+qw, 0)
						copy(dw.Data[dst:dst+icg], dwq.Data[src:src+icg])
					}
				}
			}
		}
	}
	return dw, nil
}

// phaseGeometry returns the stride-1 problem of phase (qh, qw) and its
// decimated filter tap counts.
func phaseGeometry(p conv.StridedParams, qh, qw int) (conv.Params, int, int) {
	sh, sw := p.StrideH(), p.StrideW()
	fqh := ceilDiv(p.FH-qh, sh)
	fqw := ceilDiv(p.FW-qw, sw)
	pq := conv.Params{
		N:  p.N,
		IH: p.OH() + fqh - 1, IW: p.OW() + fqw - 1,
		FH: fqh, FW: fqw,
		IC: p.IC, OC: p.OC,
		Groups: p.Groups,
	}
	return pq, fqh, fqw
}

// gatherPhasePlane materializes X_q: the stride-decimated input plane with
// the original zero padding folded in. Generic over the element type so
// the FP32 and binary16 paths share one gather — including the s_W = 1
// contiguous-run fast path — and cannot drift apart.
func gatherPhasePlane[E any](p conv.StridedParams, pq conv.Params,
	srcShape tensor.Shape, src []E, dstShape tensor.Shape, dst []E, qh, qw int) {
	sh, sw := p.StrideH(), p.StrideW()
	for n := 0; n < p.N; n++ {
		for a := 0; a < pq.IH; a++ {
			ih := sh*a + qh - p.PH
			if ih < 0 || ih >= p.IH {
				continue
			}
			if sw == 1 {
				// Unit width stride: the in-bounds run of phase columns is
				// one contiguous [cols][I_C] block in both layouts — copy
				// it wholesale instead of per column. Pure copy, so the
				// gathered plane is bit-identical to the scalar walk.
				b0 := 0
				if qw < p.PW {
					b0 = p.PW - qw
				}
				b1 := pq.IW
				if max := p.IW + p.PW - qw; b1 > max {
					b1 = max
				}
				if b0 < b1 {
					s := srcShape.Index(n, ih, b0+qw-p.PW, 0)
					d := dstShape.Index(n, a, b0, 0)
					copy(dst[d:d+(b1-b0)*p.IC], src[s:s+(b1-b0)*p.IC])
				}
				continue
			}
			for b := 0; b < pq.IW; b++ {
				iw := sw*b + qw - p.PW
				if iw < 0 || iw >= p.IW {
					continue
				}
				s := srcShape.Index(n, ih, iw, 0)
				d := dstShape.Index(n, a, b, 0)
				copy(dst[d:d+p.IC], src[s:s+p.IC])
			}
		}
	}
}

func gatherPhaseInput(p conv.StridedParams, pq conv.Params, x *tensor.Float32, qh, qw int) *tensor.Float32 {
	xq := tensor.NewFloat32(pq.XShape())
	gatherPhasePlane(p, pq, x.Shape, x.Data, xq.Shape, xq.Data, qh, qw)
	return xq
}

func gatherPhaseInputHalf(p conv.StridedParams, pq conv.Params, x *tensor.Half, qh, qw int) *tensor.Half {
	xq := tensor.NewHalf(pq.XShape())
	gatherPhasePlane(p, pq, x.Shape, x.Data, xq.Shape, xq.Data, qh, qw)
	return xq
}

// decimateFilter extracts W_q[oc, m_h, m_w, ic] = W[oc, s·m_h+q_h, s·m_w+q_w, ic].
func decimateFilter(p conv.StridedParams, pq conv.Params, w *tensor.Float32, qh, qw int) *tensor.Float32 {
	sh, sw := p.StrideH(), p.StrideW()
	icg := p.ICG() // filter channel depth under grouping
	wq := tensor.NewFloat32(pq.DWShape())
	for oc := 0; oc < p.OC; oc++ {
		for mh := 0; mh < pq.FH; mh++ {
			for mw := 0; mw < pq.FW; mw++ {
				src := w.Shape.Index(oc, sh*mh+qh, sw*mw+qw, 0)
				dst := wq.Shape.Index(oc, mh, mw, 0)
				copy(wq.Data[dst:dst+icg], w.Data[src:src+icg])
			}
		}
	}
	return wq
}

// ForwardStrided computes the strided forward convolution as the phase sum
// of stride-1 fused-Winograd forward passes over decimated inputs and
// filters — the forward counterpart of BackwardFilterStrided.
func ForwardStrided(p conv.StridedParams, x, w *tensor.Float32) (*tensor.Float32, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if x.Shape != p.XShape() || w.Shape != p.DWShape() {
		return nil, fmt.Errorf("core: ForwardStrided operand shapes %v/%v", x.Shape, w.Shape)
	}
	if unit, ok := p.Unit(); ok {
		return Forward(unit, x, w)
	}
	sh, sw := p.StrideH(), p.StrideW()
	y := tensor.NewFloat32(p.DYShape())
	for qh := 0; qh < sh && qh < p.FH; qh++ {
		for qw := 0; qw < sw && qw < p.FW; qw++ {
			pq, _, _ := phaseGeometry(p, qh, qw)
			if err := pq.Validate(); err != nil {
				return nil, fmt.Errorf("core: phase (%d,%d): %w", qh, qw, err)
			}
			xq := gatherPhaseInput(p, pq, x, qh, qw)
			wq := decimateFilter(p, pq, w, qh, qw)
			yq, err := Forward(pq, xq, wq)
			if err != nil {
				return nil, fmt.Errorf("core: phase (%d,%d): %w", qh, qw, err)
			}
			for i, v := range yq.Data {
				y.Data[i] += v
			}
		}
	}
	return y, nil
}

// BackwardDataStrided computes the input gradient of a strided convolution:
// per phase, the stride-1 data gradient with the decimated filter lands on
// the phase's (disjoint) decimation sites of ∇X.
func BackwardDataStrided(p conv.StridedParams, dy, w *tensor.Float32) (*tensor.Float32, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if dy.Shape != p.DYShape() || w.Shape != p.DWShape() {
		return nil, fmt.Errorf("core: BackwardDataStrided operand shapes %v/%v", dy.Shape, w.Shape)
	}
	if unit, ok := p.Unit(); ok {
		return BackwardData(unit, dy, w)
	}
	sh, sw := p.StrideH(), p.StrideW()
	dx := tensor.NewFloat32(p.XShape())
	for qh := 0; qh < sh && qh < p.FH; qh++ {
		for qw := 0; qw < sw && qw < p.FW; qw++ {
			pq, _, _ := phaseGeometry(p, qh, qw)
			if err := pq.Validate(); err != nil {
				return nil, fmt.Errorf("core: phase (%d,%d): %w", qh, qw, err)
			}
			wq := decimateFilter(p, pq, w, qh, qw)
			dxq, err := BackwardData(pq, dy, wq)
			if err != nil {
				return nil, fmt.Errorf("core: phase (%d,%d): %w", qh, qw, err)
			}
			// Scatter onto the phase's decimation sites (disjoint across
			// phases: ih + p_H ≡ q_h mod s_H uniquely determines the phase).
			for n := 0; n < p.N; n++ {
				for a := 0; a < pq.IH; a++ {
					ih := sh*a + qh - p.PH
					if ih < 0 || ih >= p.IH {
						continue
					}
					for b := 0; b < pq.IW; b++ {
						iw := sw*b + qw - p.PW
						if iw < 0 || iw >= p.IW {
							continue
						}
						src := dxq.Shape.Index(n, a, b, 0)
						dst := dx.Shape.Index(n, ih, iw, 0)
						copy(dx.Data[dst:dst+p.IC], dxq.Data[src:src+p.IC])
					}
				}
			}
		}
	}
	return dx, nil
}

// BackwardFilterStridedHalf is the FP16 Tensor-Core variant of
// BackwardFilterStrided: each phase's decimated input is gathered in
// binary16 and runs the stride-1 FP16 pipeline (mixed-precision transforms,
// FP32 accumulation, scaling matrices for α = 16).
func BackwardFilterStridedHalf(p conv.StridedParams, x, dy *tensor.Half, opts ...Option) (*tensor.Float32, error) {
	// Clone before appending: opts aliases the caller's variadic slice, and
	// appending in place would clobber its backing array when the caller
	// passed a shared slice with spare capacity via opts... .
	opts = append(append([]Option(nil), opts...), WithFP16())
	return backwardFilterStrided("BackwardFilterStridedHalf", p, x, dy,
		func(t *tensor.Half) tensor.Shape { return t.Shape }, gatherPhaseInputHalf, BackwardFilterHalf, opts)
}
