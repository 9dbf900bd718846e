package core

import (
	"time"

	"winrs/internal/conv"
	"winrs/internal/fp16"
	"winrs/internal/obs"
	"winrs/internal/sched"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

// Execute runs the configured FP32 WinRS plan: a pre-pass gathers and
// transforms every ∇Y unit once into the workspace's Ŵ cache, every
// segment then executes the fused Ω_α(n,r) kernel into its own ∇W bucket,
// and the buckets are reduced with Kahan summation. Work units
// (segment × f_h × width-tile) schedule onto the persistent sched pool
// the way block groups map to SMs; no two units touch the same
// accumulator, so the execution is lock-free. Each call allocates fresh
// buckets and a fresh result; see ExecuteIn for the reusing variant.
func Execute(cfg *Config, x, dy *tensor.Float32) *tensor.Float32 {
	return ExecuteIn(cfg, nil, x, dy, nil)
}

// ExecuteHalf runs the FP16 Tensor-Core path: transforms computed in FP32
// and rounded to binary16 ("SMEM storage"), EWM products of binary16 values
// accumulated in FP32 (the MMA contract), output transform in FP32 with
// the eq. (7) scaling matrices for α = 16 kernels. Buckets and the Kahan
// reduction stay FP32.
func ExecuteHalf(cfg *Config, x, dy *tensor.Half) *tensor.Float32 {
	return ExecuteHalfIn(cfg, nil, x, dy, nil)
}

// unitOffsets builds the prefix table of per-segment work-unit counts:
// entry i is the first global unit index of segment i, and the final entry
// is the total unit count. Segment si contributes F_H·(F_W/r_si) units.
func unitOffsets(fw, fh int, segs []Segment) []int {
	off := make([]int, len(segs)+1)
	for i, seg := range segs {
		off[i+1] = off[i] + fh*(fw/seg.K.N)
	}
	return off
}

// schedule returns the unit prefix table and total unit count for cfg,
// deriving them locally for hand-built configs (tests).
func schedule(cfg *Config) ([]int, int) {
	off := cfg.unitOff
	if off == nil {
		off = unitOffsets(cfg.Params.FW, cfg.Params.FH, cfg.Segments)
	}
	return off, off[len(off)-1]
}

// testPool, when non-nil, overrides the shared scheduling pool; the
// pool-vs-inline determinism tests inject widths the host machine does
// not have. Production always runs on sched.Default().
var testPool *sched.Pool

// execPool returns the worker pool every execution path schedules onto.
// One process-wide pool means concurrent callers (the serving runtime's
// request workers, parallel trainers) co-schedule on GOMAXPROCS workers
// instead of oversubscribing the machine with per-call goroutine sets.
func execPool() *sched.Pool {
	if testPool != nil {
		return testPool
	}
	return sched.Default()
}

// runUnitsFunc schedules every (segment, f_h, width-tile) unit of cfg onto
// the shared pool via a closure — the convenience form used by the
// quantized path (the FP32/FP16 hot paths use the Workspace's pooled
// execJob instead, which boxes nothing).
func runUnitsFunc(cfg *Config, unit func(si int, seg Segment, fh, j int)) {
	off, total := schedule(cfg)
	fw := cfg.Params.FW
	execPool().RunFunc(total, 0, func(lo, hi int) {
		si := 0
		for i := lo; i < hi; i++ {
			for i >= off[si+1] {
				si++ // i only grows, so si scans forward
			}
			seg := cfg.Segments[si]
			jTiles := fw / seg.K.N
			local := i - off[si]
			unit(si, seg, local/jTiles, local%jTiles)
		}
	})
}

// execJob is the pooled unit-grid task of one ExecuteIn/ExecuteHalfIn
// call. It lives inside the Workspace so the steady-state dispatch
// allocates nothing: the fields are rewritten per call and the same
// *execJob is handed to the sched pool as a Task.
type execJob struct {
	cfg       *Config
	ws        *Workspace
	x32, dy32 *tensor.Float32
	x16, dy16 *tensor.Half
	half      bool
	traceOn   bool
}

// Run executes global units [lo, hi) — the sched.Task contract.
func (j *execJob) Run(lo, hi int) {
	cfg, ws := j.cfg, j.ws
	off := ws.unitOff
	fw := cfg.Params.FW
	si := 0
	for i := lo; i < hi; i++ {
		for i >= off[si+1] {
			si++
		}
		seg := cfg.Segments[si]
		jTiles := fw / seg.K.N
		local := i - off[si]
		fh, jt := local/jTiles, local%jTiles
		what := ws.what32[ws.whatOff[si]:ws.whatOff[si+1]]
		if j.half {
			tileHalfResUnit(cfg.Params, seg, fh, jt, j.x16, ws.xDec, what, ws.buckets[si], j.traceOn)
		} else {
			tile32Unit(cfg.Params, seg, fh, jt, j.x32, what, ws.buckets[si], j.traceOn)
		}
	}
}

// fillJob is the pooled Ŵ-cache pre-pass task: items are global segment
// rows (prefix table ws.rowOff), and each item gathers + filter-transforms
// every (width-tile, batch) ∇Y unit of that row into the cache. Like
// execJob it is embedded in the Workspace and reused across calls.
type fillJob struct {
	cfg  *Config
	ws   *Workspace
	dy32 *tensor.Float32
	dy16 *tensor.Half
	half bool
}

// Run fills global segment rows [lo, hi).
func (f *fillJob) Run(lo, hi int) {
	cfg, ws := f.cfg, f.ws
	p := cfg.Params
	s := getTileScratch()
	defer putTileScratch(s)

	si := 0
	for i := lo; i < hi; i++ {
		for i >= ws.rowOff[si+1] {
			si++
		}
		seg := cfg.Segments[si]
		oh := seg.Row0 + (i - ws.rowOff[si])
		what := ws.what32[ws.whatOff[si]:ws.whatOff[si+1]]
		if f.half {
			fillRowHalfRes(p, seg, oh, f.dy16, ws.dyDec, s, what)
		} else {
			fillRow32(p, seg, oh, f.dy32, what)
		}
	}
}

// fillRow32 computes the FP32 Ŵ panels of one segment row: for every
// width tile and batch image, gather the r-wide ∇Y unit and apply the
// filter transform Ŵ = G·W directly into the cache slot. These values are
// what the pre-restructuring kernel recomputed F_H·(F_W/n) times per
// (oh, ow0, nb); computing them exactly once here keeps the execution
// bit-identical while amortizing the transform.
func fillRow32(p conv.Params, seg Segment, oh int, dy *tensor.Float32,
	what []float32) {
	tr := seg.K.Transform().Balanced()
	gPlan, _ := tr.PanelPlans()
	r, alpha, oc := tr.R, tr.Alpha, p.OC
	entry := alpha * oc
	tiles := seg.Cols() / r
	rowBase := (oh - seg.Row0) * tiles

	for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
		for nb := 0; nb < p.N; nb++ {
			// In the (N,H,W,C) layout the r unit rows are one contiguous
			// [r][O_C] block — ∇Y is unpadded and segments tile O_W exactly,
			// so the unit never clips. Transform straight from the tensor;
			// the gather copy the pre-tier code paid per unit is free.
			base := dy.Shape.Index(nb, oh, ow0, 0)
			dst := what[((rowBase+t)*p.N+nb)*entry:]
			gPlan.MulPanel(dy.Data[base:base+r*oc], dst[:entry], r, oc)
		}
	}
}

// halfMats returns the transform matrices of the FP16 path: balanced for
// the small-α kernels, the eq. (7) scaling matrices for α ≥ 16 (unit-L1 G
// and Dᵀ rows keep transformed binary16 values in dynamic range).
func halfMats(tr *winograd.Transform) (g, d, a *winograd.Mat) {
	bal := tr.Balanced()
	g, d, a = bal.G, bal.D, bal.A
	if tr.Alpha >= 16 {
		sc := tr.Scaled()
		g, d, a = sc.G, sc.D, sc.A
	}
	return g, d, a
}

// fillRowHalfRes is fillRow32 for the FP16 path: mixed-precision filter
// transform (FP32 arithmetic, binary16 storage). The ∇Y unit reads
// straight from the bulk-decoded dyDec mirror (one contiguous [r][O_C]
// block, like fillRow32), and the transformed panel is rounded through
// binary16 while being stored in float32 form (fp16.RoundInto) — the
// decoded-operand ("resident") cache. Cache values are bit-identical to
// decode(encode(panel)), so execution-side uses need no per-unit decode.
func fillRowHalfRes(p conv.Params, seg Segment, oh int, dy *tensor.Half,
	dyDec []float32, s *tileScratch, what []float32) {
	tr := seg.K.Transform()
	gMat, _, _ := halfMats(tr)
	r, alpha, oc := tr.R, tr.Alpha, p.OC
	wHatF := growF32(&s.wHatF, alpha*oc)
	entry := alpha * oc
	tiles := seg.Cols() / r
	rowBase := (oh - seg.Row0) * tiles

	for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
		for nb := 0; nb < p.N; nb++ {
			base := dy.Shape.Index(nb, oh, ow0, 0)
			matMulF32(gMat, dyDec[base:base+r*oc], wHatF, r, oc)
			dst := what[((rowBase+t)*p.N+nb)*entry:]
			fp16.RoundInto(dst[:entry], wHatF)
		}
	}
}

// traceSampleEvery is the 1-in-N sampling stride of the intra-unit stage
// timers: with tracing on, only every N-th (oh, ow0, nb) iteration is
// timed and the sampled durations are scaled by the realized iteration/
// sample ratio, so -trace no longer pays two time.Now() calls per inner
// iteration — the overhead that used to perturb the very stage shares it
// reports. Power of two so the sample test is a mask.
const traceSampleEvery = 8

// tile32Unit runs one FP32 fused unit, recording its stage durations when
// traceOn. A top-level function (not a closure) so the trace scratch stays
// on the stack and the disabled path is branch-only.
func tile32Unit(p conv.Params, seg Segment, fh, j int, x *tensor.Float32,
	what []float32, bucket []float32, traceOn bool) {
	if !traceOn {
		segmentTile32(p, seg, fh, j, x, what, bucket, nil)
		return
	}
	var ut obs.UnitTimes
	t0 := time.Now()
	segmentTile32(p, seg, fh, j, x, what, bucket, &ut)
	obs.RecordUnit(time.Since(t0), ut)
}

// tileHalfResUnit is tile32Unit for the decoded-operand FP16 path.
func tileHalfResUnit(p conv.Params, seg Segment, fh, j int, x *tensor.Half,
	xDec []float32, what []float32, bucket []float32, traceOn bool) {
	if !traceOn {
		segmentTileHalfRes(p, seg, fh, j, x, xDec, what, bucket, nil)
		return
	}
	var ut obs.UnitTimes
	t0 := time.Now()
	segmentTileHalfRes(p, seg, fh, j, x, xDec, what, bucket, &ut)
	obs.RecordUnit(time.Since(t0), ut)
}

// unitSampler implements the scaled 1-in-N stage timing of one fused
// unit (see traceSampleEvery). The zero value is ready to use; all state
// stays on the caller's stack.
type unitSampler struct {
	iters, samples int
	transform, ewm time.Duration
	t0             time.Time
	sampling       bool
}

// begin starts one inner iteration, arming the timers on sampled ones.
func (u *unitSampler) begin(ut *obs.UnitTimes) {
	u.sampling = ut != nil && u.iters&(traceSampleEvery-1) == 0
	u.iters++
	if u.sampling {
		u.t0 = time.Now()
	}
}

// mark records the transform span of a sampled iteration and re-arms for
// the EWM span.
func (u *unitSampler) mark() {
	if u.sampling {
		now := time.Now()
		u.transform += now.Sub(u.t0)
		u.t0 = now
	}
}

// end closes a sampled iteration's EWM span.
func (u *unitSampler) end() {
	if u.sampling {
		u.ewm += time.Since(u.t0)
		u.samples++
	}
}

// flush scales the sampled spans to the full iteration count and adds
// them to ut.
func (u *unitSampler) flush(ut *obs.UnitTimes) {
	if ut == nil || u.samples == 0 {
		return
	}
	scale := int64(u.iters) / int64(u.samples)
	rem := int64(u.iters) % int64(u.samples)
	ut.Transform += time.Duration(int64(u.transform)*scale + int64(u.transform)*rem/int64(u.samples))
	ut.EWM += time.Duration(int64(u.ewm)*scale + int64(u.ewm)*rem/int64(u.samples))
}

// segmentTile32 executes the fused FP32 kernel for one (segment, f_h,
// width-tile) unit: it produces the ∇W rows [j·n, (j+1)·n) at height f_h
// for all (oc, ic), accumulating the EWM over the segment's rows, units and
// the batch.
//
// The gathered + filter-transformed ∇Y panels (Ŵ, α·O_C each) come from
// the workspace cache filled by the pre-pass — they depend only on
// (oh, ow0, nb), so one fill amortizes across all F_H·(F_W/n) units of the
// segment instead of being recomputed per unit. Per inner iteration the
// remaining fused stages appear in order: X gather + input transform
// X̂ = Dᵀ·X, the register-blocked α-batched outer-product "GEMM", and (per
// unit) the final output transform.
//
// ut, when non-nil, accumulates sampled, scaled intra-unit transform and
// EWM durations for the observability layer; the nil path adds only
// predictable never-taken branches.
func segmentTile32(p conv.Params, seg Segment, fh, j int, x *tensor.Float32,
	what []float32, bucket []float32, ut *obs.UnitTimes) {
	k := seg.K
	// Balanced transforms keep FP32 cancellation in the paper's accuracy
	// band for the α = 16 kernels; the symmetric panel plans implement the
	// Figure 8 transform simplification (shared ± products).
	tr := k.Transform().Balanced()
	_, dtPlan := tr.PanelPlans()
	n, r, alpha := tr.N, tr.R, tr.Alpha
	oc, ic := p.OC, p.IC
	sel := selectEWM(k, false, oc, ic)

	s := getTileScratch()
	defer putTileScratch(s)
	// Accumulators v[α][OC][IC] (the register tile of Algorithm 3).
	v := growF32Zero(&s.v, alpha*oc*ic)
	xRaw := growF32(&s.xRaw, alpha*ic)  // gathered X tile, [α][IC]
	xHat := growF32(&s.xHatF, alpha*ic) // Dᵀ·X, [α][IC]
	colBase := j * n
	entry := alpha * oc
	tiles := seg.Cols() / r

	var smp unitSampler
	var wHat []float32
	// emit multiplies each X̂ row into the accumulators the moment the
	// input transform finalizes it — the fused transform+EWM mode, which
	// consumes rows while they are still cache-hot instead of storing the
	// whole panel and reloading it. Each v element still receives exactly
	// one fused add per e, so fusion is bit-identical to the unfused order.
	// MulPanelEmit never retains the closure, so it stays on the stack.
	emit := func(u, w int) {
		sel.panel(v[u*oc*ic:(u+1)*oc*ic], wHat[u*oc:(u+1)*oc], xHat[u*ic:(u+1)*ic], oc, ic)
		if w >= 0 {
			sel.panel(v[w*oc*ic:(w+1)*oc*ic], wHat[w*oc:(w+1)*oc], xHat[w*ic:(w+1)*ic], oc, ic)
		}
	}
	if !sel.fused {
		emit = nil
	}
	for oh := seg.Row0; oh < seg.Row1; oh++ {
		ih := oh + fh - p.PH
		if ih < 0 || ih >= p.IH {
			continue // height-axis clipping (Figure 7)
		}
		rowBase := (oh - seg.Row0) * tiles
		for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
			for nb := 0; nb < p.N; nb++ {
				smp.begin(ut)
				// Cached Ŵ panel (filled once per (oh, ow0, nb)).
				wHat = what[((rowBase+t)*p.N+nb)*entry:]
				wHat = wHat[:entry]
				// X source: an interior tile is one contiguous [α][I_C]
				// block in the (N,H,W,C) layout and feeds the transform
				// in place; only width-clipped tiles gather through xRaw
				// (with implicit zero padding).
				iw0 := ow0 + colBase - p.PW
				xSrc := xRaw
				if iw0 >= 0 && iw0+alpha <= p.IW {
					base := x.Shape.Index(nb, ih, iw0, 0)
					xSrc = x.Data[base : base+alpha*ic]
				} else {
					for u := 0; u < alpha; u++ {
						iw := iw0 + u
						dst := xRaw[u*ic : (u+1)*ic]
						if iw < 0 || iw >= p.IW {
							for i := range dst {
								dst[i] = 0
							}
							continue
						}
						base := x.Shape.Index(nb, ih, iw, 0)
						copy(dst, x.Data[base:base+ic])
					}
				}
				if emit != nil {
					// Fused: the transform span folds into the EWM share
					// (StageShares stays informational).
					smp.mark()
					dtPlan.MulPanelEmit(xSrc, xHat, alpha, ic, emit)
				} else {
					dtPlan.MulPanel(xSrc, xHat, alpha, ic)
					smp.mark()
					ewmPanelsSel(sel.panel, v, wHat, xHat, alpha, oc, ic)
				}
				smp.end()
			}
		}
	}
	smp.flush(ut)

	// Output transform: y = Aᵀ·v[:, oc, ic], written into the bucket.
	writeOutput(p, tr.A, v, bucket, fh, colBase, n, alpha, oc, ic, growF32(&s.acc, alpha))
}

// segmentTileHalfRes is the FP16 variant of segmentTile32 (see
// ExecuteHalf): the Ŵ cache is float32-resident (binary16-rounded values
// stored already decoded, see fillRowHalfRes) and X reads from the
// bulk-decoded xDec mirror, so the per-unit codec work shrinks to the one
// mandatory X̂ "SMEM storage" rounding; the EWM accumulates in FP32.
// Operand values are bit-identical to a per-use scalar codec (the
// codecref_test.go oracle): binary16 → float32 decoding is exact, and every
// resident store rounded through binary16 on the way in. The fused mode
// transforms, rounds and multiplies one X̂ row at a time — matTMulRowF32
// reproduces the panel transform's per-row ascending-k accumulation
// exactly, and rounding is element-wise, so the row-at-a-time order
// changes no bits either.
func segmentTileHalfRes(p conv.Params, seg Segment, fh, j int, x *tensor.Half,
	xDec []float32, what []float32, bucket []float32, ut *obs.UnitTimes) {
	k := seg.K
	tr := k.Transform()
	_, dMat, aMat := halfMats(tr)
	n, r, alpha := tr.N, tr.R, tr.Alpha
	oc, ic := p.OC, p.IC
	sel := selectEWM(k, true, oc, ic)

	s := getTileScratch()
	defer putTileScratch(s)
	v := growF32Zero(&s.v, alpha*oc*ic)
	xRaw := growF32(&s.xRaw, alpha*ic)
	xHat := growF32(&s.xHatF, alpha*ic)
	colBase := j * n
	entry := alpha * oc
	tiles := seg.Cols() / r

	// Depthwise fused tier: hoist Dᵀ into a transposed float32 copy once
	// per unit, so the per-tile row transforms below walk it contiguously
	// instead of paying a strided float64 load + convert per coefficient.
	var dT []float32
	if sel.fused && ic == 1 {
		dT = growF32(&s.dT, alpha*alpha)
		for e := 0; e < alpha; e++ {
			for kk := 0; kk < alpha; kk++ {
				dT[e*alpha+kk] = float32(dMat.At(kk, e))
			}
		}
	}

	var smp unitSampler
	for oh := seg.Row0; oh < seg.Row1; oh++ {
		ih := oh + fh - p.PH
		if ih < 0 || ih >= p.IH {
			continue
		}
		rowBase := (oh - seg.Row0) * tiles
		for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
			for nb := 0; nb < p.N; nb++ {
				smp.begin(ut)
				wHat := what[((rowBase+t)*p.N+nb)*entry:]
				wHat = wHat[:entry]
				iw0 := ow0 + colBase - p.PW
				xSrc := xRaw
				if iw0 >= 0 && iw0+alpha <= p.IW {
					base := x.Shape.Index(nb, ih, iw0, 0)
					xSrc = xDec[base : base+alpha*ic]
				} else {
					for u := 0; u < alpha; u++ {
						iw := iw0 + u
						dst := xRaw[u*ic : (u+1)*ic]
						if iw < 0 || iw >= p.IW {
							for i := range dst {
								dst[i] = 0
							}
							continue
						}
						base := x.Shape.Index(nb, ih, iw, 0)
						copy(dst, xDec[base:base+ic])
					}
				}
				if sel.fused && ic == 1 {
					// Depthwise fused unit: the X̂ row is ONE float, so the
					// row transform collapses to a dot product against a
					// per-unit transposed float32 copy of Dᵀ (same constant
					// conversion, ascending-k order and zero skip as
					// matTMulRowF32), the storage rounding to the scalar
					// fp16.Round, and the EWM to ewmPanelDW1's zero-skipping
					// column sweep — every step bit-identical to the generic
					// calls it replaces, without their per-element call and
					// slice overhead.
					smp.mark()
					for e := 0; e < alpha; e++ {
						var s float32
						for kk, c := range dT[e*alpha : (e+1)*alpha] {
							if c != 0 {
								s += c * xSrc[kk]
							}
						}
						s = fp16.Round(s)
						ve := v[e*oc : (e+1)*oc]
						for a, wv := range wHat[e*oc : (e+1)*oc] {
							if wv != 0 {
								ve[a] += wv * s
							}
						}
					}
				} else if sel.fused {
					smp.mark()
					for e := 0; e < alpha; e++ {
						row := xHat[e*ic : (e+1)*ic]
						matTMulRowF32(dMat, xSrc, row, e, alpha, ic)
						fp16.RoundSlice(row)
						sel.panel(v[e*oc*ic:(e+1)*oc*ic], wHat[e*oc:(e+1)*oc], row, oc, ic)
					}
				} else {
					matTMulF32(dMat, xSrc, xHat, alpha, ic)
					fp16.RoundSlice(xHat)
					smp.mark()
					ewmPanelsSel(sel.panel, v, wHat, xHat, alpha, oc, ic)
				}
				smp.end()
			}
		}
	}
	smp.flush(ut)
	writeOutput(p, aMat, v, bucket, fh, colBase, n, alpha, oc, ic, growF32(&s.acc, alpha))
}

// writeOutput applies the FP32 output transform Aᵀ to the accumulators and
// adds the n output columns into the bucket at (·, fh, colBase…, ·). acc is
// α-length scratch for the per-(oc,ic) accumulator column.
func writeOutput(p conv.Params, aMat *winograd.Mat, v []float32, bucket []float32,
	fh, colBase, n, alpha, oc, ic int, acc []float32) {
	dwShape := p.DWShape()
	for a := 0; a < oc; a++ {
		for b := 0; b < ic; b++ {
			for e := 0; e < alpha; e++ {
				acc[e] = v[(e*oc+a)*ic+b]
			}
			for i := 0; i < n; i++ {
				var s float32
				for e := 0; e < alpha; e++ {
					s += float32(aMat.At(e, i)) * acc[e]
				}
				idx := dwShape.Index(a, fh, colBase+i, b)
				bucket[idx] += s
			}
		}
	}
}

// matMulF32 computes out = m·in for in laid out [m.Cols][width] and out
// [m.Rows][width], in float32.
func matMulF32(m *winograd.Mat, in, out []float32, rows, width int) {
	if rows != m.Cols {
		panic("core: matMulF32 dimension mismatch")
	}
	if width == 1 {
		// Depthwise column shape (the grouped Ŵ fill's O_C/G == 1 panel):
		// scalar accumulators, same ascending-k order and zero skip.
		for i := 0; i < m.Rows; i++ {
			var s float32
			for k := 0; k < rows; k++ {
				if c := float32(m.At(i, k)); c != 0 {
					s += c * in[k]
				}
			}
			out[i] = s
		}
		return
	}
	for i := 0; i < m.Rows; i++ {
		dst := out[i*width : (i+1)*width]
		for x := range dst {
			dst[x] = 0
		}
		for k := 0; k < rows; k++ {
			c := float32(m.At(i, k))
			if c == 0 {
				continue
			}
			src := in[k*width : (k+1)*width]
			for x, sv := range src {
				dst[x] += c * sv
			}
		}
	}
}

// matTMulF32 computes out = mᵀ·in for in laid out [m.Rows][width] and out
// [m.Cols][width], in float32.
func matTMulF32(m *winograd.Mat, in, out []float32, rows, width int) {
	if rows != m.Rows {
		panic("core: matTMulF32 dimension mismatch")
	}
	for i := 0; i < m.Cols; i++ {
		dst := out[i*width : (i+1)*width]
		for x := range dst {
			dst[x] = 0
		}
	}
	for k := 0; k < rows; k++ {
		src := in[k*width : (k+1)*width]
		for i := 0; i < m.Cols; i++ {
			c := float32(m.At(k, i))
			if c == 0 {
				continue
			}
			dst := out[i*width : (i+1)*width]
			for x, sv := range src {
				dst[x] += c * sv
			}
		}
	}
}

// BackwardFilter is the one-call convenience API: configure and execute in
// FP32.
func BackwardFilter(p conv.Params, x, dy *tensor.Float32, opts ...Option) (*tensor.Float32, error) {
	cfg, err := Configure(p, opts...)
	if err != nil {
		return nil, err
	}
	return Execute(cfg, x, dy), nil
}

// BackwardFilterHalf is the one-call FP16 path.
func BackwardFilterHalf(p conv.Params, x, dy *tensor.Half, opts ...Option) (*tensor.Float32, error) {
	// Clone before appending: opts aliases the caller's variadic slice,
	// and appending in place would clobber its backing array when the
	// caller passed a shared slice with spare capacity via opts... .
	opts = append(append([]Option(nil), opts...), WithFP16())
	cfg, err := Configure(p, opts...)
	if err != nil {
		return nil, err
	}
	return ExecuteHalf(cfg, x, dy), nil
}
