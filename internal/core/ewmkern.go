package core

import "winrs/internal/winograd"

// The EWM kernel tier: shape-specialized register-blocked panel kernels
// selected per Ω kernel and precision, plus the fused transform+EWM
// execution mode. Every variant is bit-identical to the base 4×4 kernel
// (the scalar-oracle tier of ewm.go) because each v element still receives
// exactly one fused add per e — register blocking and row interleaving
// only reorder independent accumulators — and the fused mode replicates
// the transform's per-row arithmetic exactly (see MulPanelEmit). The
// differential suites force every mode through the codecref/pool oracles
// to pin this.

// ewmMode is the kernel-tier forcing mode: auto (per-kernel selection),
// or one of the force values the differential sweeps pin each variant
// with.
type ewmMode uint8

const (
	ewmAuto   ewmMode = iota
	ewmBlock4         // force the base 4×4 tier (the oracle's kernel)
	ewmBlock8         // force 8-row blocking, fusion disabled
	ewmFused          // force the fused transform+EWM mode (any α)
)

// ewmForce is the process-wide forcing mode: always auto in production,
// a test-only hook the differential sweeps set through forceEWM.
var ewmForce ewmMode

// ewmPanelFunc is one register-blocked EWM panel kernel:
// ve[a][b] += we[a]·xe[b].
type ewmPanelFunc func(ve, we, xe []float32, oc, ic int)

// ewmSel is the resolved kernel-tier selection for one segment kernel.
type ewmSel struct {
	panel ewmPanelFunc
	fused bool
	name  string
}

// selectEWM resolves the kernel-tier variant for a segment kernel. The
// block shape follows the kernel's cache-block table: 8-row blocking
// whenever O_C can fill a block row (every Ω kernel has B_N ≥ 64), and the
// column width widens from 4 to 8 when B_M ≥ 64 and I_C fills it — the
// same footnote-3 trade-off that shrinks GPU cache blocks as α grows
// shrinks the profitable host register block. Fusion (transform+EWM in one
// tile pass) applies to the small-α kernels, where the X̂ panel is small
// enough that consuming each row immediately after its transform keeps the
// whole chain in L1.
// ewmNames holds the pre-concatenated attribution strings ([fused][shape])
// so selectEWM never builds a string at runtime — it runs on the per-unit
// zero-allocation hot path.
var ewmNames = [2][4]string{
	{"block4x4", "block8x4", "block8x8", "dw1"},
	{"fused4x4", "fused8x4", "fused8x8", "fuseddw1"},
}

func selectEWM(k winograd.Kernel, fp16 bool, oc, ic int) ewmSel {
	mode := ewmForce
	var sel ewmSel
	shape := 0
	bn, bm := k.CacheBlock(fp16)
	switch {
	case ic == 1 && mode != ewmBlock4 && mode != ewmBlock8:
		// Depthwise regime (I_C/G == 1): the accumulator panel is a single
		// column, so the register blocks above degenerate into their scalar
		// tails. The dedicated panel drops the channel-reduction loop; auto
		// and the fused force select it, and the explicit block forcings
		// still win for oracle comparisons.
		sel.panel, shape = ewmPanelDW1, 3
	case mode == ewmBlock4 || oc < 8 || bn < 64:
		sel.panel = ewmPanel
	case ic >= 8 && bm >= 64:
		sel.panel, shape = ewmPanel8x8, 2
	default:
		sel.panel, shape = ewmPanel8x4, 1
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
	sel := selectEWM(e.Pair.Fast, c.FP16, e.Params.OC, e.Params.IC)
	return sel.name
}

// ewmPanelsSel is ewmPanels with a selected panel kernel.
func ewmPanelsSel(panel ewmPanelFunc, v, wHat, xHat []float32, alpha, oc, ic int) {
	for e := 0; e < alpha; e++ {
		panel(v[e*oc*ic:(e+1)*oc*ic], wHat[e*oc:(e+1)*oc], xHat[e*ic:(e+1)*ic], oc, ic)
	}
}

// ewmPanel8x4 is the 8-row × 4-column register block: eight Ŵ values held
// across a 32-FMA body so each X̂ load amortizes over 8 rows. Row blocks
// whose eight Ŵ values are all zero are skipped wholesale; the O_C
// remainder falls through to the 4×4 tail. Identical accumulation per
// element as the base kernel (one fused add per (a, b)).
func ewmPanel8x4(ve, we, xe []float32, oc, ic int) {
	a := 0
	for ; a+8 <= oc; a += 8 {
		w0, w1, w2, w3 := we[a], we[a+1], we[a+2], we[a+3]
		w4, w5, w6, w7 := we[a+4], we[a+5], we[a+6], we[a+7]
		if w0 == 0 && w1 == 0 && w2 == 0 && w3 == 0 &&
			w4 == 0 && w5 == 0 && w6 == 0 && w7 == 0 {
			continue
		}
		r0 := ve[(a+0)*ic : (a+0)*ic+ic : (a+0)*ic+ic]
		r1 := ve[(a+1)*ic : (a+1)*ic+ic : (a+1)*ic+ic]
		r2 := ve[(a+2)*ic : (a+2)*ic+ic : (a+2)*ic+ic]
		r3 := ve[(a+3)*ic : (a+3)*ic+ic : (a+3)*ic+ic]
		r4 := ve[(a+4)*ic : (a+4)*ic+ic : (a+4)*ic+ic]
		r5 := ve[(a+5)*ic : (a+5)*ic+ic : (a+5)*ic+ic]
		r6 := ve[(a+6)*ic : (a+6)*ic+ic : (a+6)*ic+ic]
		r7 := ve[(a+7)*ic : (a+7)*ic+ic : (a+7)*ic+ic]
		b := 0
		for ; b+4 <= ic; b += 4 {
			x0, x1, x2, x3 := xe[b], xe[b+1], xe[b+2], xe[b+3]
			r0[b] += w0 * x0
			r0[b+1] += w0 * x1
			r0[b+2] += w0 * x2
			r0[b+3] += w0 * x3
			r1[b] += w1 * x0
			r1[b+1] += w1 * x1
			r1[b+2] += w1 * x2
			r1[b+3] += w1 * x3
			r2[b] += w2 * x0
			r2[b+1] += w2 * x1
			r2[b+2] += w2 * x2
			r2[b+3] += w2 * x3
			r3[b] += w3 * x0
			r3[b+1] += w3 * x1
			r3[b+2] += w3 * x2
			r3[b+3] += w3 * x3
			r4[b] += w4 * x0
			r4[b+1] += w4 * x1
			r4[b+2] += w4 * x2
			r4[b+3] += w4 * x3
			r5[b] += w5 * x0
			r5[b+1] += w5 * x1
			r5[b+2] += w5 * x2
			r5[b+3] += w5 * x3
			r6[b] += w6 * x0
			r6[b+1] += w6 * x1
			r6[b+2] += w6 * x2
			r6[b+3] += w6 * x3
			r7[b] += w7 * x0
			r7[b+1] += w7 * x1
			r7[b+2] += w7 * x2
			r7[b+3] += w7 * x3
		}
		for ; b < ic; b++ {
			xv := xe[b]
			r0[b] += w0 * xv
			r1[b] += w1 * xv
			r2[b] += w2 * xv
			r3[b] += w3 * xv
			r4[b] += w4 * xv
			r5[b] += w5 * xv
			r6[b] += w6 * xv
			r7[b] += w7 * xv
		}
	}
	if a < oc {
		ewmPanelTail(ve, we, xe, a, oc, ic)
	}
}

// ewmPanelTail handles the O_C remainder of the 8-row kernels with the
// base kernel's 4-row blocks and per-row zero skip, starting at row a0.
func ewmPanelTail(ve, we, xe []float32, a0, oc, ic int) {
	a := a0
	for ; a+4 <= oc; a += 4 {
		w0, w1, w2, w3 := we[a], we[a+1], we[a+2], we[a+3]
		if w0 == 0 && w1 == 0 && w2 == 0 && w3 == 0 {
			continue
		}
		r0 := ve[(a+0)*ic : (a+0)*ic+ic : (a+0)*ic+ic]
		r1 := ve[(a+1)*ic : (a+1)*ic+ic : (a+1)*ic+ic]
		r2 := ve[(a+2)*ic : (a+2)*ic+ic : (a+2)*ic+ic]
		r3 := ve[(a+3)*ic : (a+3)*ic+ic : (a+3)*ic+ic]
		b := 0
		for ; b+4 <= ic; b += 4 {
			x0, x1, x2, x3 := xe[b], xe[b+1], xe[b+2], xe[b+3]
			r0[b] += w0 * x0
			r0[b+1] += w0 * x1
			r0[b+2] += w0 * x2
			r0[b+3] += w0 * x3
			r1[b] += w1 * x0
			r1[b+1] += w1 * x1
			r1[b+2] += w1 * x2
			r1[b+3] += w1 * x3
			r2[b] += w2 * x0
			r2[b+1] += w2 * x1
			r2[b+2] += w2 * x2
			r2[b+3] += w2 * x3
			r3[b] += w3 * x0
			r3[b+1] += w3 * x1
			r3[b+2] += w3 * x2
			r3[b+3] += w3 * x3
		}
		for ; b < ic; b++ {
			xv := xe[b]
			r0[b] += w0 * xv
			r1[b] += w1 * xv
			r2[b] += w2 * xv
			r3[b] += w3 * xv
		}
	}
	for ; a < oc; a++ {
		wv := we[a]
		if wv == 0 {
			continue
		}
		row := ve[a*ic : a*ic+ic : a*ic+ic]
		for b, xv := range xe {
			row[b] += wv * xv
		}
	}
}

// ewmPanel8x8 is the 8×8 register block for the kernels whose cache block
// sustains it: 64 FMAs per 16 loads, with the same wholesale zero skip on
// all-zero row octets. Column remainder narrows to 4 then 1; row remainder
// falls through to the 4×4 tail.
func ewmPanel8x8(ve, we, xe []float32, oc, ic int) {
	a := 0
	for ; a+8 <= oc; a += 8 {
		w0, w1, w2, w3 := we[a], we[a+1], we[a+2], we[a+3]
		w4, w5, w6, w7 := we[a+4], we[a+5], we[a+6], we[a+7]
		if w0 == 0 && w1 == 0 && w2 == 0 && w3 == 0 &&
			w4 == 0 && w5 == 0 && w6 == 0 && w7 == 0 {
			continue
		}
		r0 := ve[(a+0)*ic : (a+0)*ic+ic : (a+0)*ic+ic]
		r1 := ve[(a+1)*ic : (a+1)*ic+ic : (a+1)*ic+ic]
		r2 := ve[(a+2)*ic : (a+2)*ic+ic : (a+2)*ic+ic]
		r3 := ve[(a+3)*ic : (a+3)*ic+ic : (a+3)*ic+ic]
		r4 := ve[(a+4)*ic : (a+4)*ic+ic : (a+4)*ic+ic]
		r5 := ve[(a+5)*ic : (a+5)*ic+ic : (a+5)*ic+ic]
		r6 := ve[(a+6)*ic : (a+6)*ic+ic : (a+6)*ic+ic]
		r7 := ve[(a+7)*ic : (a+7)*ic+ic : (a+7)*ic+ic]
		b := 0
		for ; b+8 <= ic; b += 8 {
			x0, x1, x2, x3 := xe[b], xe[b+1], xe[b+2], xe[b+3]
			x4, x5, x6, x7 := xe[b+4], xe[b+5], xe[b+6], xe[b+7]
			r0[b] += w0 * x0
			r0[b+1] += w0 * x1
			r0[b+2] += w0 * x2
			r0[b+3] += w0 * x3
			r0[b+4] += w0 * x4
			r0[b+5] += w0 * x5
			r0[b+6] += w0 * x6
			r0[b+7] += w0 * x7
			r1[b] += w1 * x0
			r1[b+1] += w1 * x1
			r1[b+2] += w1 * x2
			r1[b+3] += w1 * x3
			r1[b+4] += w1 * x4
			r1[b+5] += w1 * x5
			r1[b+6] += w1 * x6
			r1[b+7] += w1 * x7
			r2[b] += w2 * x0
			r2[b+1] += w2 * x1
			r2[b+2] += w2 * x2
			r2[b+3] += w2 * x3
			r2[b+4] += w2 * x4
			r2[b+5] += w2 * x5
			r2[b+6] += w2 * x6
			r2[b+7] += w2 * x7
			r3[b] += w3 * x0
			r3[b+1] += w3 * x1
			r3[b+2] += w3 * x2
			r3[b+3] += w3 * x3
			r3[b+4] += w3 * x4
			r3[b+5] += w3 * x5
			r3[b+6] += w3 * x6
			r3[b+7] += w3 * x7
			r4[b] += w4 * x0
			r4[b+1] += w4 * x1
			r4[b+2] += w4 * x2
			r4[b+3] += w4 * x3
			r4[b+4] += w4 * x4
			r4[b+5] += w4 * x5
			r4[b+6] += w4 * x6
			r4[b+7] += w4 * x7
			r5[b] += w5 * x0
			r5[b+1] += w5 * x1
			r5[b+2] += w5 * x2
			r5[b+3] += w5 * x3
			r5[b+4] += w5 * x4
			r5[b+5] += w5 * x5
			r5[b+6] += w5 * x6
			r5[b+7] += w5 * x7
			r6[b] += w6 * x0
			r6[b+1] += w6 * x1
			r6[b+2] += w6 * x2
			r6[b+3] += w6 * x3
			r6[b+4] += w6 * x4
			r6[b+5] += w6 * x5
			r6[b+6] += w6 * x6
			r6[b+7] += w6 * x7
			r7[b] += w7 * x0
			r7[b+1] += w7 * x1
			r7[b+2] += w7 * x2
			r7[b+3] += w7 * x3
			r7[b+4] += w7 * x4
			r7[b+5] += w7 * x5
			r7[b+6] += w7 * x6
			r7[b+7] += w7 * x7
		}
		for ; b+4 <= ic; b += 4 {
			x0, x1, x2, x3 := xe[b], xe[b+1], xe[b+2], xe[b+3]
			r0[b] += w0 * x0
			r0[b+1] += w0 * x1
			r0[b+2] += w0 * x2
			r0[b+3] += w0 * x3
			r1[b] += w1 * x0
			r1[b+1] += w1 * x1
			r1[b+2] += w1 * x2
			r1[b+3] += w1 * x3
			r2[b] += w2 * x0
			r2[b+1] += w2 * x1
			r2[b+2] += w2 * x2
			r2[b+3] += w2 * x3
			r3[b] += w3 * x0
			r3[b+1] += w3 * x1
			r3[b+2] += w3 * x2
			r3[b+3] += w3 * x3
			r4[b] += w4 * x0
			r4[b+1] += w4 * x1
			r4[b+2] += w4 * x2
			r4[b+3] += w4 * x3
			r5[b] += w5 * x0
			r5[b+1] += w5 * x1
			r5[b+2] += w5 * x2
			r5[b+3] += w5 * x3
			r6[b] += w6 * x0
			r6[b+1] += w6 * x1
			r6[b+2] += w6 * x2
			r6[b+3] += w6 * x3
			r7[b] += w7 * x0
			r7[b+1] += w7 * x1
			r7[b+2] += w7 * x2
			r7[b+3] += w7 * x3
		}
		for ; b < ic; b++ {
			xv := xe[b]
			r0[b] += w0 * xv
			r1[b] += w1 * xv
			r2[b] += w2 * xv
			r3[b] += w3 * xv
			r4[b] += w4 * xv
			r5[b] += w5 * xv
			r6[b] += w6 * xv
			r7[b] += w7 * xv
		}
	}
	if a < oc {
		ewmPanelTail(ve, we, xe, a, oc, ic)
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
