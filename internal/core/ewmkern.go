package core

import (
	"winrs/internal/cpufeat"
)

// The EWM kernel tier: two chunk kernels selected per operand shape and
// host. A chunk kernel accumulates one α-plane of a unit's chunk of tiles
// — one GEMM slice, v[e] += Σ_t Ŵ_t[e] ⊗ X̂_t[e] — and every variant is
// bit-identical to the base 4×4 panel applied tile by tile (the scalar
// oracle of ewm.go): each v element still receives exactly one multiply
// and one add per (tile, e), in ascending tile order, so register blocks,
// SIMD lanes and row order only reorder independent accumulators. The
// differential suites force both tiers, and both kernel paths, through the
// codecref/pool oracles to pin this. Depthwise plans run none of the tier:
// their channel-wide units multiply diagonally (ewmDiag).

// ewmMode is the kernel-tier forcing mode: auto (per-shape selection),
// the base tier the differential sweeps pin the selection against, or
// auto with one-tile chunks.
type ewmMode uint8

const (
	ewmAuto      ewmMode = iota
	ewmBlock4            // force the base 4×4 tier (the oracle's kernel)
	ewmTileFused         // force chunks of one tile: each tile's X̂ goes from its transform straight into the EWM
)

// ewmForce is the process-wide forcing mode: always auto in production,
// a test-only hook the differential sweeps set through forceEWM.
var ewmForce ewmMode

// ewmChunkFunc is one chunk kernel: ve[a][b] += Σ_t we[t][a]·xe[t][b] over
// tc ≥ 1 tiles in ascending t, with ve [oc][ic], we [tc][oc] and xe
// [tc][ic]. With first set the sums start from +0 and ve's prior contents
// are never read: the unit's first chunk needs no cleared accumulators.
type ewmChunkFunc func(ve, we, xe []float32, oc, ic, tc int, first bool)

// ewmSel is the resolved kernel-tier selection for one operand shape.
type ewmSel struct {
	chunk ewmChunkFunc
	name  string
}

// selectEWM resolves the chunk kernel for I_C input channels per group:
// the AVX2 kernel at I_C ≥ 8 on an AVX2 host (narrower panels would run
// mostly its Go column tail), and the Go 4×4 panel per tile everywhere
// else, including under the forced base tier.
func selectEWM(ic int) ewmSel {
	if ewmForce != ewmBlock4 && ic >= 8 && cpufeat.HasAVX2 {
		return ewmSel{ewmChunkAVX2, "avx2"}
	}
	return ewmSel{ewmChunkGo, "block4x4"}
}

// EWMKernel reports the kernel-tier selection the plan's units resolve to
// — the per-plan attribution recorded by winrs-info and the bench JSON's
// ewm_kernel field — or "diag" for a depthwise plan, whose channel-wide
// units run the diagonal EWM.
func (c *Config) EWMKernel() string {
	if c.dwBlock > 0 {
		return "diag"
	}
	return selectEWM(c.exec().Params.IC).name // grouped plans: the per-group I_C
}

// ewmChunkGo is the portable chunk kernel: the Go 4×4 panel applied tile
// by tile, into accumulators cleared on the first chunk.
func ewmChunkGo(ve, we, xe []float32, oc, ic, tc int, first bool) {
	if first {
		clear(ve[:oc*ic])
	}
	for t := 0; t < tc; t++ {
		ewmPanel(ve, we[t*oc:(t+1)*oc], xe[t*ic:(t+1)*ic], oc, ic)
	}
}

// ewmChunkAVX2 is the AVX2 chunk kernel. ewmBlockAVX2 holds a 4×16 block
// of ve in YMM registers across all tc tiles and covers the first ic&^7
// columns; Go finishes the column tail, one element in a register across
// the tiles. Both skip a (tile, row) term wherever we[t][a] is ±0, the way
// ewmPanel's remainder rows do, so non-finite X̂ under a zero Ŵ row never
// reaches an accumulator. On finite operands the skip granularity changes
// no bits: sums start at +0 and can never become −0, so adding a ±0
// product is the identity on them. selectEWM picks it only on AVX2 hosts
// at I_C ≥ 8.
func ewmChunkAVX2(ve, we, xe []float32, oc, ic, tc int, first bool) {
	ve, we, xe = ve[:oc*ic], we[:tc*oc], xe[:tc*ic] // the kernel checks no bounds
	n8 := ic &^ 7
	if oc > 0 && tc > 0 && n8 > 0 {
		f := 0
		if first {
			f = 1
		}
		ewmBlockAVX2(&ve[0], &we[0], &xe[0], oc, ic, n8, tc, f)
	}
	if n8 == ic {
		return
	}
	for a := 0; a < oc; a++ {
		row := ve[a*ic+n8 : (a+1)*ic]
		for b := range row {
			var s float32
			if !first {
				s = row[b]
			}
			for t := 0; t < tc; t++ {
				if wv := we[t*oc+a]; wv != 0 {
					s += wv * xe[t*ic+n8+b]
				}
			}
			row[b] = s
		}
	}
}
