package core

import (
	"time"

	"winrs/internal/conv"
	"winrs/internal/cpufeat"
	"winrs/internal/obs"
)

// Channel-wide depthwise execution. A depthwise layer (I_C/G = O_C/G = 1)
// never mixes channels: channel c of ∇W reads only channel c of X and ∇Y.
// Its plan adapts the per-group problem, whose segments and kernels fix
// the bits, but runs them as ONE unit grid over (segment, width tile,
// block of cb contiguous channels) on the whole layer, the way an
// ungrouped plan runs its grid. In NHWC a tile's X is [α][C] and its ∇Y
// [r][C], so a block is a [α][cb] panel: the filter and input transforms
// run at width cb and the EWM becomes the diagonal v[e][c] += Ŵ[e][c]·X̂[e][c].
//
// No channel's operation sequence changes. The panel transforms run one
// chain per column at any width, rounding is element-wise, the EWM keeps
// the per-element Ŵ zero skip of the blocked panels, the output kernel
// runs the per-element sum in every lane, and the phase-3 Kahan reduce
// visits the buckets in order for every element. So the gradient is
// bit-identical to running the per-group plan once per group.
//
// A unit covers every filter row of its channel block: it computes each Ŵ
// panel once per (row, tile, image) and uses it at once in all F_H rows,
// so the plan needs no Ŵ cache, and it transforms each X tile once into a
// ring of the last F_H X rows' X̂ panels, which every filter row reads.
// X and ∇Y tiles are staged straight from the caller's operands (decoded
// or rounded on the way), so it needs no operand mirrors either; the
// workspace is the Z buckets of the whole ∇W, and the ring, 4·F_H·
// ⌈cols/r⌉·N·α·cb bytes, is per-unit tile scratch.

// channelBlock is the channel block cb of a depthwise plan of c channels
// on a pool of w workers: ⌊c/w⌋ rounded down to a multiple of 8, so every
// worker gets a block, clamped to [8, 64] (8 fills one AVX2 register;
// at 128 the MobileNet layers measured in DESIGN §10 gain at most 4% or
// run up to 1.8× slower), and capped at c.
func channelBlock(c, w int) int {
	return min(c, 64, max(8, c/w&^7))
}

// channelUnits runs global (segment, width-tile, channel-block) units
// [lo, hi) of a depthwise plan, recording each unit's stage durations
// when tracing, and stops before the next unit once the call is
// cancelled.
func (j *execJob) channelUnits(lo, hi int) {
	cfg, ws := j.cfg, j.ws
	p, cb := cfg.Params, cfg.dwBlock
	blocks := ceilDiv(p.IC, cb)
	si := 0
	for i := lo; i < hi && !j.cancel.Cancelled(); i++ {
		for i >= cfg.unitOff[si+1] {
			si++
		}
		local := i - cfg.unitOff[si]
		c0 := local % blocks * cb
		u := channelUnit{seg: cfg.Segments[si], j: local / blocks, c0: c0, cb: min(cb, p.IC-c0)}
		if !j.traceOn {
			u.run(p, ws.plans[si], j.st, j.ops, ws.buckets[si], nil)
		} else {
			var ut obs.UnitTimes
			t0 := time.Now()
			u.run(p, ws.plans[si], j.st, j.ops, ws.buckets[si], &ut)
			obs.RecordUnit(time.Since(t0), ut)
		}
		if testUnitDone != nil {
			testUnitDone(j.cancel)
		}
	}
}

// channelUnit is one unit of the channel-wide grid: width tile j of a
// segment over channels [c0, c0+cb).
type channelUnit struct {
	seg       Segment
	j, c0, cb int
}

// run produces the unit's ∇W entries — every filter row, the n output
// columns of width tile j, every channel of the block — into bucket, which
// holds the whole layer's ∇W. The unit keeps the X̂ panels of the last F_H
// X rows in a ring (fillRing): each X row of the segment is staged,
// transformed to X̂ = Dᵀ·X and rounded once, when the first output row
// that reads it comes up. Per (row, tile, image) it stages the ∇Y panel
// and transforms it to Ŵ = G·∇Y; then, for each filter row whose X row
// lies inside the image, it adds the diagonal EWM of Ŵ and that X row's
// ring panel into the filter row's accumulators. Both transformed panels
// are rounded under the storage policy. ut, when non-nil, collects the
// transform/EWM split (ring fills timed whole, tile iterations sampled)
// and the epilogue.
func (u channelUnit) run(p conv.Params, pl unitPlan, st storage, ops operands, bucket []float32, ut *obs.UnitTimes) {
	seg, cb, round := u.seg, u.cb, st.round
	n, r, alpha := seg.K.N, seg.K.R, seg.K.Alpha
	c, oh, ow := p.IC, p.OH(), p.OW()
	panel := alpha * cb
	slot := ceilDiv(seg.Cols(), r) * p.N * panel

	s := getTileScratch()
	defer putTileScratch(s)
	v := growF32Zero(&s.v, p.FH*panel) // accumulators, [F_H][α][cb]
	wRaw := growF32(&s.wRaw, r*cb)
	wHat := growF32(&s.wHatF, panel)
	xRaw := growF32(&s.xRaw, panel)
	ring := growF32(&s.xHatF, p.FH*slot) // X row ih in slot ih mod F_H, [tile][image][α][cb]

	// Each accumulator sums over (row, tile, image) in the order of the
	// per-group unit, from the X̂ panels that unit computes, so the sums
	// round the same way.
	var smp unitSampler
	for row := seg.Row0; row < seg.Row1; row++ {
		// Output row `row` reads X rows [row−P_H, row−P_H+F_H) inside
		// the image: fill them all at the segment's first row, then the
		// one new row per row, over the slot of the row it retires.
		last := row - p.PH + p.FH - 1
		first := last
		if row == seg.Row0 {
			first = row - p.PH
		}
		for ih := max(first, 0); ih <= min(last, p.IH-1); ih++ {
			var t0 time.Time
			if ut != nil {
				t0 = time.Now()
			}
			u.fillRing(p, pl, ops.x, round, ring[ih%p.FH*slot:][:slot], xRaw, ih)
			if ut != nil {
				smp.directSince(t0)
			}
		}
		fh0, fh1 := max(0, p.PH-row), min(p.FH, p.IH+p.PH-row)
		if fh0 >= fh1 {
			continue // height-axis clipping of every filter row
		}
		for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
			for nb := 0; nb < p.N; nb++ {
				smp.begin(ut)
				ops.dy.stage(wRaw, (nb*oh+row)*ow+ow0, r, c, u.c0, cb, round)
				pl.g.MulPanel(wRaw, wHat, r, cb)
				if round != nil {
					round(wHat)
				}
				smp.mark()
				tile := (t*p.N + nb) * panel
				for fh := fh0; fh < fh1; fh++ {
					ih := row + fh - p.PH
					ewmDiag(v[fh*panel:(fh+1)*panel], wHat, ring[ih%p.FH*slot+tile:][:panel])
				}
				smp.end()
			}
		}
	}
	smp.flush(ut)
	var t0 time.Time
	if ut != nil {
		t0 = time.Now()
	}
	u.writeOutput(p, pl, v, bucket, growF32(&s.acc, n*(alpha+cb)))
	if ut != nil {
		ut.Epilogue += time.Since(t0)
	}
}

// fillRing fills dst, X row ih's ring slot, [tile][image][α][cb]: per
// tile and image it stages the row's X tile into xRaw, transforms it to
// X̂ = Dᵀ·X into its place in dst and rounds it there.
func (u channelUnit) fillRing(p conv.Params, pl unitPlan, x operand, round func([]float32), dst, xRaw []float32, ih int) {
	seg, cb := u.seg, u.cb
	alpha, panel := seg.K.Alpha, seg.K.Alpha*u.cb
	colBase := u.j * seg.K.N
	for ow0 := seg.Col0; ow0 < seg.Col1; ow0 += seg.K.R {
		// Tile columns [lo, hi) lie inside the image; the rest are the
		// implicit zero padding (Figure 7), which staging never writes.
		iw0 := ow0 + colBase - p.PW
		lo := min(alpha, max(0, -iw0))
		hi := max(lo, min(alpha, p.IW-iw0))
		clear(xRaw[:lo*cb])
		clear(xRaw[hi*cb:])
		for nb := 0; nb < p.N; nb++ {
			if lo < hi {
				x.stage(xRaw[lo*cb:], (nb*p.IH+ih)*p.IW+iw0+lo, hi-lo, p.IC, u.c0, cb, round)
			}
			xHat := dst[:panel]
			pl.dt.MulPanel(xRaw, xHat, alpha, cb)
			if round != nil {
				round(xHat)
			}
			dst = dst[panel:]
		}
	}
}

// ewmDiag is the EWM of a channel-wide unit: v[i] += ŵ[i]·x̂[i] for every
// i with ŵ[i] ≠ ±0 — per channel, the one-column product of the blocked
// panels, with their zero skip. On an AVX2 host the kernel covers the
// largest multiple of 8 elements and ewmDiagGo the rest.
func ewmDiag(v, w, x []float32) {
	v, x = v[:len(w)], x[:len(w)]
	lo := 0
	if n8 := len(w) &^ 7; cpufeat.HasAVX2 && n8 > 0 {
		ewmDiagAVX2(&v[0], &w[0], &x[0], n8)
		lo = n8
	}
	ewmDiagGo(v[lo:], w[lo:], x[lo:])
}

// ewmDiagGo is ewmDiag's portable path, the AVX2 kernel's tail and its
// oracle. The float32 conversion rounds the product, which keeps the
// compiler from fusing it into the sum on FMA targets.
func ewmDiagGo(v, w, x []float32) {
	v, x = v[:len(w)], x[:len(w)]
	for i, wv := range w {
		if wv != 0 {
			v[i] += float32(wv * x[i])
		}
	}
}

// writeOutput applies the output transform Aᵀ to the unit's accumulators
// and stores its ∇W entries: for each filter row fh, one outputRows call
// builds the n cb-wide rows over the block in scratch, reading each
// accumulator once, and each channel's value lands in its own ∇W slab, at
// stride F_H·F_W. Like the ungrouped epilogue it stores rather than adds,
// so buckets need no zeroing. acc is α·n + n·cb floats of scratch: A in
// float32, then the rows.
func (u channelUnit) writeOutput(p conv.Params, pl unitPlan, v, bucket, acc []float32) {
	n, alpha, cb := u.seg.K.N, u.seg.K.Alpha, u.cb
	a := outputMatrix(pl.a, acc, n, alpha)
	rows := acc[alpha*n : alpha*n+n*cb]
	taps := p.FH * p.FW
	for fh := 0; fh < p.FH; fh++ {
		outputRows(rows, a, v[fh*alpha*cb:], n, cb, cb)
		for i := 0; i < n; i++ {
			out := bucket[u.c0*taps+fh*p.FW+u.j*n+i:]
			for k, val := range rows[i*cb : (i+1)*cb] {
				out[k*taps] = val
			}
		}
	}
}
