package core

import (
	"winrs/internal/cpufeat"
	"winrs/internal/winograd"
)

// The EWM kernel tier: three panel kernels selected per operand shape and
// host, plus the fused transform+EWM execution mode. Every variant is
// bit-identical to the base 4×4 kernel (the scalar-oracle tier of ewm.go)
// because each v element still receives exactly one multiply and one add
// per e — blocking, SIMD lanes and row order only reorder independent
// accumulators — and the fused mode replicates the transform's per-row
// arithmetic exactly (see MulPanelEmit). The differential suites force
// every mode, and both kernel paths, through the codecref/pool oracles to
// pin this.

// ewmMode is the kernel-tier forcing mode: auto (per-kernel selection),
// or one of the force values the differential sweeps pin each variant
// with.
type ewmMode uint8

const (
	ewmAuto   ewmMode = iota
	ewmBlock4         // force the base 4×4 tier (the oracle's kernel)
	ewmFused          // force the fused transform+EWM mode (any α)
)

// ewmForce is the process-wide forcing mode: always auto in production,
// a test-only hook the differential sweeps set through forceEWM.
var ewmForce ewmMode

// ewmPanelFunc is one EWM panel kernel: ve[a][b] += we[a]·xe[b].
type ewmPanelFunc func(ve, we, xe []float32, oc, ic int)

// ewmSel is the resolved kernel-tier selection for one segment kernel.
type ewmSel struct {
	panel ewmPanelFunc
	fused bool
	name  string
}

// ewmNames holds the pre-concatenated attribution strings ([fused][panel])
// so selectEWM never builds a string at runtime — it runs on the per-unit
// zero-allocation hot path.
var ewmNames = [2][3]string{
	{"block4x4", "avx2", "dw1"},
	{"fused4x4", "fusedavx2", "fuseddw1"},
}

// selectEWM resolves the kernel-tier variant for a segment kernel with
// I_C input channels per group. The panel follows the operand shape and
// the host: the depthwise panel at I_C == 1, the AVX2 panel at I_C ≥ 8 on
// an AVX2 host (narrower panels would run mostly its Go column tail), and
// the Go 4×4 panel everywhere else. Fusion (transform+EWM in one tile
// pass) applies to the small-α kernels, where the X̂ panel is small enough
// that consuming each row immediately after its transform keeps the whole
// chain in L1.
func selectEWM(k winograd.Kernel, ic int) ewmSel {
	mode := ewmForce
	var sel ewmSel
	shape := 0
	switch {
	case mode == ewmBlock4:
		sel.panel = ewmPanel
	case ic == 1:
		// Depthwise regime (I_C/G == 1): the accumulator panel is a single
		// column, so the dedicated panel drops the channel-reduction loop.
		sel.panel, shape = ewmPanelDW1, 2
	case ic >= 8 && cpufeat.HasAVX2:
		sel.panel, shape = ewmPanelAVX2, 1
	default:
		sel.panel = ewmPanel
	}
	switch mode {
	case ewmAuto:
		sel.fused = k.Alpha <= 8
	case ewmFused:
		sel.fused = true
	}
	if sel.fused {
		sel.name = ewmNames[1][shape]
	} else {
		sel.name = ewmNames[0][shape]
	}
	return sel
}

// EWMKernel reports the kernel-tier selection the plan's fast kernel
// resolves to — the per-plan attribution recorded by winrs-info and the
// bench JSON's ewm_kernel field.
func (c *Config) EWMKernel() string {
	e := c.exec() // grouped plans attribute the per-group operand shape
	sel := selectEWM(e.Pair.Fast, e.Params.IC)
	return sel.name
}

// ewmPanelsSel is ewmPanels with a selected panel kernel.
func ewmPanelsSel(panel ewmPanelFunc, v, wHat, xHat []float32, alpha, oc, ic int) {
	for e := 0; e < alpha; e++ {
		panel(v[e*oc*ic:(e+1)*oc*ic], wHat[e*oc:(e+1)*oc], xHat[e*ic:(e+1)*ic], oc, ic)
	}
}

// ewmPanelAVX2 is the AVX2 panel: ve[a][b] += we[a]·xe[b] for every row
// with we[a] ≠ ±0, the first ic&^7 columns in 8-lane VMULPS/VADDPS steps,
// the column tail in Go with the same zero skip. Each element still gets
// one multiply and one add per e, so the accumulation is bit-identical to
// ewmPanel. Skipping whole rows where ewmPanel skips 4-row blocks changes
// no bits on finite operands: accumulators start at +0 and can never
// become −0, so adding a ±0 product is the identity on them. selectEWM
// picks it only on AVX2 hosts at I_C ≥ 8.
func ewmPanelAVX2(ve, we, xe []float32, oc, ic int) {
	ve, we, xe = ve[:oc*ic], we[:oc], xe[:ic] // the kernel checks no bounds
	n8 := ic &^ 7
	if oc > 0 && n8 > 0 {
		ewmRank1AVX2(&ve[0], &we[0], &xe[0], oc, ic, n8)
	}
	if n8 == ic {
		return
	}
	for a, wv := range we {
		if wv == 0 {
			continue
		}
		row := ve[a*ic+n8 : a*ic+ic]
		for b, xv := range xe[n8:] {
			row[b] += wv * xv
		}
	}
}

// ewmPanelDW1 is the depthwise specialization: with I_C == 1 the [O_C][I_C]
// accumulator panel collapses to one column, ve[a] += we[a]·xe[0], so the
// channel-reduction loop of the blocked kernels disappears — one FMA per
// output channel against the lone X̂ value held in a register. Each element
// still receives exactly one fused add per e, and the per-row zero skip
// matches the base kernel's scalar tail, so the accumulation is
// bit-identical to every other tier. Only I_C == 1 selects it.
func ewmPanelDW1(ve, we, xe []float32, oc, _ int) {
	xv := xe[0]
	ve = ve[:oc]
	for a, wv := range we[:oc] {
		if wv == 0 {
			continue
		}
		ve[a] += wv * xv
	}
}
