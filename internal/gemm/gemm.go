// Package gemm provides a blocked, parallel float32 matrix multiply and the
// three GEMM-based backward-filter convolution baselines that stand in for
// cuDNN's Cu-Algo0, Cu-Algo1 and Cu-Algo3:
//
//   - Algo0: implicit GEMM — patches are gathered on the fly, no workspace,
//     blocked (pairwise) accumulation for accuracy.
//   - Algo1: explicit im2col + GEMM — materializes patch chunks in a
//     workspace and accumulates sequentially, which degrades accuracy at
//     large accumulation lengths (the paper's Fig 12C behaviour).
//   - Algo3: split-K tiled GEMM — partial products per K-slice land in a
//     small workspace and are reduced, giving Algo0-like accuracy with a
//     modest workspace.
//
// BFC maps onto GEMM as ∇W[oc, (fh,fw,ic)] = Σ_k ∇Y_k[oc] · patch_k[(fh,fw,ic)]
// with the reduction axis k = (n, oh, ow) of length N·O_H·O_W.
package gemm

import (
	"winrs/internal/conv"
	"winrs/internal/fp16"
	"winrs/internal/sched"
	"winrs/internal/tensor"
)

// Gemm computes C = Aᵀ·B + C for row-major A (K×M), B (K×N), C (M×N),
// blocked over M and parallel across row blocks. The Aᵀ·B form matches the
// BFC reduction layout where K is the long axis.
func Gemm(a, b, c []float32, k, m, n int) {
	if len(a) != k*m || len(b) != k*n || len(c) != m*n {
		panic("gemm: dimension mismatch")
	}
	const blockM = 32
	blocks := (m + blockM - 1) / blockM
	sched.For(blocks, func(bi int) {
		i0 := bi * blockM
		i1 := i0 + blockM
		if i1 > m {
			i1 = m
		}
		for kk := 0; kk < k; kk++ {
			arow := a[kk*m : (kk+1)*m]
			brow := b[kk*n : (kk+1)*n]
			for i := i0; i < i1; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				crow := c[i*n : (i+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	})
}

// patchAt gathers X[n, oh+fh-pH, ow+fw-pW, ic] with implicit zero padding.
func patchAt(p conv.Params, x *tensor.Float32, n, oh, ow, fh, fw, ic int) float32 {
	ih := oh + fh - p.PH
	iw := ow + fw - p.PW
	if ih < 0 || ih >= p.IH || iw < 0 || iw >= p.IW {
		return 0
	}
	return x.At(n, ih, iw, ic)
}

// Algo0 computes BFC by implicit GEMM with no workspace. Accumulation over
// the K axis is pairwise-blocked (tree reduction over 256-element chunks),
// which keeps the float32 error near Cu-Algo0's ~1e-7 MARE even for very
// long reductions.
func Algo0(p conv.Params, x, dy *tensor.Float32) *tensor.Float32 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	dw := tensor.NewFloat32(p.DWShape())
	oh, ow := p.OH(), p.OW()
	kLen := p.N * oh * ow
	const chunk = 256
	sched.For(p.OC, func(oc int) {
		for fh := 0; fh < p.FH; fh++ {
			for fw := 0; fw < p.FW; fw++ {
				for ic := 0; ic < p.IC; ic++ {
					// Pairwise accumulation: sum fixed-size chunks, then
					// sum the chunk totals.
					var total float64
					for k0 := 0; k0 < kLen; k0 += chunk {
						k1 := k0 + chunk
						if k1 > kLen {
							k1 = kLen
						}
						var partial float32
						for k := k0; k < k1; k++ {
							n := k / (oh * ow)
							rem := k % (oh * ow)
							y, xw := rem/ow, rem%ow
							partial += patchAt(p, x, n, y, xw, fh, fw, ic) *
								dy.At(n, y, xw, oc)
						}
						total += float64(partial)
					}
					dw.Set(oc, fh, fw, ic, float32(total))
				}
			}
		}
	})
	return dw
}

// Algo1ChunkRows is the number of K rows Algo1 materializes per im2col
// chunk. cuDNN's precomputed-index GEMM uses a bounded workspace rather
// than the full im2col matrix; the chunk size is calibrated so workspace
// lands in the 0.28×–2.21× data-size band of the paper's Table 2.
const Algo1ChunkRows = 1 << 16

// Algo1Workspace returns the workspace Algo1 allocates, in bytes: one
// im2col chunk of min(K, Algo1ChunkRows) rows by F_H·F_W·I_C columns.
func Algo1Workspace(p conv.Params) int64 {
	k := int64(p.N) * int64(p.OH()) * int64(p.OW())
	if k > Algo1ChunkRows {
		k = Algo1ChunkRows
	}
	return k * int64(p.FH) * int64(p.FW) * int64(p.IC) * 4
}

// Algo1 computes BFC by explicit chunked im2col + GEMM. Accumulation over K
// is plain sequential float32, so accuracy degrades as N·O_H·O_W grows —
// matching Cu-Algo1's measured behaviour (Table 4, Fig 12C).
func Algo1(p conv.Params, x, dy *tensor.Float32) *tensor.Float32 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	oh, ow := p.OH(), p.OW()
	m := p.OC
	nCols := p.FH * p.FW * p.IC
	kLen := p.N * oh * ow
	chunkRows := kLen
	if chunkRows > Algo1ChunkRows {
		chunkRows = Algo1ChunkRows
	}

	dwFlat := make([]float32, m*nCols)
	colBuf := make([]float32, chunkRows*nCols) // the workspace
	aBuf := make([]float32, chunkRows*m)

	for k0 := 0; k0 < kLen; k0 += chunkRows {
		k1 := k0 + chunkRows
		if k1 > kLen {
			k1 = kLen
		}
		rows := k1 - k0
		// Materialize the im2col chunk and the matching ∇Y rows.
		sched.For(rows, func(ri int) {
			k := k0 + ri
			n := k / (oh * ow)
			rem := k % (oh * ow)
			y, xw := rem/ow, rem%ow
			dst := colBuf[ri*nCols : (ri+1)*nCols]
			idx := 0
			for fh := 0; fh < p.FH; fh++ {
				for fw := 0; fw < p.FW; fw++ {
					for ic := 0; ic < p.IC; ic++ {
						dst[idx] = patchAt(p, x, n, y, xw, fh, fw, ic)
						idx++
					}
				}
			}
			arow := aBuf[ri*m : (ri+1)*m]
			for oc := 0; oc < m; oc++ {
				arow[oc] = dy.At(n, y, xw, oc)
			}
		})
		Gemm(aBuf[:rows*m], colBuf[:rows*nCols], dwFlat, rows, m, nCols)
	}

	dw := tensor.NewFloat32(p.DWShape())
	copy(dw.Data, dwFlat)
	return dw
}

// Algo3SplitK is the number of K slices Algo3 reduces over.
const Algo3SplitK = 8

// Algo3Workspace returns the workspace Algo3 allocates: Algo3SplitK−1
// partial ∇W buffers (the first partial accumulates in place).
func Algo3Workspace(p conv.Params) int64 {
	return int64(Algo3SplitK-1) * tensor.Bytes32(p.DWShape())
}

// Algo3 computes BFC by split-K implicit GEMM: the K axis is cut into
// Algo3SplitK slices computed in parallel into separate partial buffers,
// which are then reduced. Accuracy matches Algo0 (each slice is shorter, and
// the final reduction is short), workspace is a few ∇W copies.
func Algo3(p conv.Params, x, dy *tensor.Float32) *tensor.Float32 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	oh, ow := p.OH(), p.OW()
	kLen := p.N * oh * ow
	split := Algo3SplitK
	if split > kLen {
		split = kLen
	}
	elems := p.DWShape().Elems()
	partials := make([][]float32, split)
	sched.For(split, func(s int) {
		buf := make([]float32, elems)
		k0 := s * kLen / split
		k1 := (s + 1) * kLen / split
		for k := k0; k < k1; k++ {
			n := k / (oh * ow)
			rem := k % (oh * ow)
			y, xw := rem/ow, rem%ow
			for oc := 0; oc < p.OC; oc++ {
				dyv := dy.At(n, y, xw, oc)
				if dyv == 0 {
					continue
				}
				for fh := 0; fh < p.FH; fh++ {
					ih := y + fh - p.PH
					if ih < 0 || ih >= p.IH {
						continue
					}
					for fw := 0; fw < p.FW; fw++ {
						iw := xw + fw - p.PW
						if iw < 0 || iw >= p.IW {
							continue
						}
						base := p.DWShape().Index(oc, fh, fw, 0)
						xbase := x.Shape.Index(n, ih, iw, 0)
						for ic := 0; ic < p.IC; ic++ {
							buf[base+ic] += x.Data[xbase+ic] * dyv
						}
					}
				}
			}
		}
		partials[s] = buf
	})

	dw := tensor.NewFloat32(p.DWShape())
	for i := 0; i < elems; i++ {
		var s float32
		for _, buf := range partials {
			s += buf[i]
		}
		dw.Data[i] = s
	}
	return dw
}

// Algo1Half is the FP16 Tensor-Core variant of Algo1 with legacy HMMA
// semantics: binary16 operands and binary16 accumulation over the long
// reduction axis. Like Cu-Algo1's measured behaviour (Table 4: up to
// 8.34e-1 MARE), accuracy collapses as N·O_H·O_W grows, because the
// running binary16 sum absorbs ever-smaller addends.
func Algo1Half(p conv.Params, x, dy *tensor.Half) *tensor.Float32 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	oh, ow := p.OH(), p.OW()
	dw := tensor.NewFloat32(p.DWShape())
	acc := make([]fp16.Bits, p.DWShape().Elems())
	kLen := p.N * oh * ow
	sched.For(p.OC, func(oc int) {
		for k := 0; k < kLen; k++ {
			n := k / (oh * ow)
			rem := k % (oh * ow)
			y, xw := rem/ow, rem%ow
			dyv := dy.Data[dy.Shape.Index(n, y, xw, oc)]
			if dyv == 0 {
				continue
			}
			for fh := 0; fh < p.FH; fh++ {
				ih := y + fh - p.PH
				if ih < 0 || ih >= p.IH {
					continue
				}
				for fw := 0; fw < p.FW; fw++ {
					iw := xw + fw - p.PW
					if iw < 0 || iw >= p.IW {
						continue
					}
					base := p.DWShape().Index(oc, fh, fw, 0)
					xbase := x.Shape.Index(n, ih, iw, 0)
					for ic := 0; ic < p.IC; ic++ {
						acc[base+ic] = fp16.FMA(x.Data[xbase+ic], dyv, acc[base+ic])
					}
				}
			}
		}
	})
	fp16.DecodeSlice(dw.Data, acc)
	return dw
}
