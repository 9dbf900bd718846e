package core

import (
	"math/rand"

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
	Run     func() // one tile pass (α panels)
}

// EWMMicroCells builds the microbenchmark grid: one hot kernel per α
// family (Ω4(3,2), Ω8(3,6), Ω16(9,8)) × the panels, plus transform+EWM
// unfused-vs-fused pairs that isolate the fusion benefit. All cells run on
// O_C = I_C = 16 panels. The variant names predate the current tier and
// feed committed benchmark metrics, so they stay: "block4x4" runs the Go
// 4×4 panel, and "block8x4", "block8x8", "xform+block8x8" and "fused8x8"
// run the panel selectEWM picks at this shape (the AVX2 panel on an AVX2
// host, else the 4×4 panel).
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
		tr := k.Transform().Balanced()
		_, dtPlan := tr.PanelPlans()
		kn := k.String()
		picked := selectEWM(k, ic).panel
		panelCell := func(variant string, panel ewmPanelFunc) EWMMicroCell {
			return EWMMicroCell{Kernel: kn, Variant: variant, Run: func() {
				ewmPanelsSel(panel, v, wHat, xHat, alpha, oc, ic)
			}}
		}
		emit := func(u, w int) {
			picked(v[u*oc*ic:(u+1)*oc*ic], wHat[u*oc:(u+1)*oc], xHat[u*ic:(u+1)*ic], oc, ic)
			if w >= 0 {
				picked(v[w*oc*ic:(w+1)*oc*ic], wHat[w*oc:(w+1)*oc], xHat[w*ic:(w+1)*ic], oc, ic)
			}
		}
		cells = append(cells,
			// Pure EWM: the Go panel, then the selected panel under both
			// names the committed metrics read.
			panelCell("block4x4", ewmPanel),
			panelCell("block8x4", picked),
			panelCell("block8x8", picked),
			// Transform+EWM, store/reload vs fused: same arithmetic, the
			// delta is exactly the intermediate-panel round trip.
			EWMMicroCell{Kernel: kn, Variant: "xform+block8x8", Run: func() {
				dtPlan.MulPanel(xRaw, xHat, alpha, ic)
				ewmPanelsSel(picked, v, wHat, xHat, alpha, oc, ic)
			}},
			EWMMicroCell{Kernel: kn, Variant: "fused8x8", Run: func() {
				dtPlan.MulPanelEmit(xRaw, xHat, alpha, ic, emit)
			}},
		)
	}
	return cells
}
