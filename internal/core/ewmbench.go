package core

import (
	"math/rand"

	"winrs/internal/conv"
	"winrs/internal/winograd"
)

// EWMMicroCell is one EWM-only microbenchmark cell: a closed workload that
// exercises a single kernel-tier variant on one Ω kernel's tile geometry,
// without the surrounding gather, cache or scheduling machinery. winrs-bench
// times the cells into "ewm/<Ω>/<variant>" rows so kernel-tier regressions
// are attributable without a full grid run.
type EWMMicroCell struct {
	Kernel  string // Ω_α(n,r) notation
	Variant string // kernel-tier variant name (matches ewm_kernel values)
	Run     func() // one tile's pass (α planes)
}

// EWMMicroCells builds the microbenchmark grid: one hot kernel per α
// family (Ω4(3,2), Ω8(3,6), Ω16(9,8)) on O_C = I_C = 16 panels, every
// cell one tile's pass. The variant names predate the chunk kernels and
// feed committed benchmark metrics, so they stay; each runs live code:
//
//   - "block4x4": the Go chunk kernel (the 4×4 panel) on one tile;
//   - "block8x4": the chunk kernel selectEWM picks at this shape (the AVX2
//     kernel on an AVX2 host) on one tile, adding to the accumulators as a
//     unit's later chunks do;
//   - "block8x8": the same on one tile from +0, as a unit's first chunk;
//   - "xform+block8x8": the tile's input transform, then "block8x4";
//   - "fused8x8": a dense unit's whole chunk step on one interior tile —
//     X gather, Ŵ pack, input transform and the selected kernel.
func EWMMicroCells() []EWMMicroCell {
	const oc, ic = 16, 16
	type nr struct{ n, r int }
	var cells []EWMMicroCell
	for _, kr := range []nr{{3, 2}, {3, 6}, {9, 8}} {
		k, ok := winograd.Lookup(kr.n, kr.r)
		if !ok {
			continue
		}
		alpha := k.Alpha
		rng := rand.New(rand.NewSource(int64(alpha)))
		wHat := make([]float32, alpha*oc)
		xRaw := make([]float32, alpha*ic)
		xHat := make([]float32, alpha*ic)
		v := make([]float32, alpha*oc*ic)
		for i := range wHat {
			wHat[i] = rng.Float32() - 0.5
		}
		for i := range xRaw {
			xRaw[i] = rng.Float32() - 0.5
		}
		copy(xHat, xRaw)
		pl := fp32Storage.plan(k)
		kn := k.String()
		picked := selectEWM(ic).chunk
		// One tile's Ŵ panel [α][OC] is also its plane-major chunk panel.
		tile := func(kernel ewmChunkFunc, first bool) {
			for e := 0; e < alpha; e++ {
				kernel(v[e*oc*ic:(e+1)*oc*ic], wHat[e*oc:(e+1)*oc], xHat[e*ic:(e+1)*ic], oc, ic, 1, first)
			}
		}
		chunk := denseChunk{
			p: conv.Params{IW: alpha, IC: ic, OC: oc}, pl: pl, kernel: picked,
			x: xRaw, what: wHat, alpha: alpha, v: v,
			xRaw: make([]float32, alpha*ic), xHat: make([]float32, alpha*ic), wHat: make([]float32, alpha*oc),
		}
		its := []tileIter{{}}
		var smp unitSampler
		cells = append(cells,
			EWMMicroCell{Kernel: kn, Variant: "block4x4", Run: func() { tile(ewmChunkGo, false) }},
			EWMMicroCell{Kernel: kn, Variant: "block8x4", Run: func() { tile(picked, false) }},
			EWMMicroCell{Kernel: kn, Variant: "block8x8", Run: func() { tile(picked, true) }},
			EWMMicroCell{Kernel: kn, Variant: "xform+block8x8", Run: func() {
				pl.dt.MulPanel(xRaw, xHat, alpha, ic)
				tile(picked, false)
			}},
			EWMMicroCell{Kernel: kn, Variant: "fused8x8", Run: func() { chunk.run(its, false, &smp, nil) }},
		)
	}
	return cells
}
