package core

import (
	"time"

	"winrs/internal/conv"
	"winrs/internal/fp16"
	"winrs/internal/obs"
	"winrs/internal/sched"
	"winrs/internal/tensor"
)

// Grouped execution (G > 1, except depthwise layers, which run
// channel-wide: see depthwise.go) runs the adapted per-group plan
// (Config.group) once per channel group. NHWC keeps channels innermost,
// so one group's operands are strided row-gathers (rows of width I_C/G at
// stride I_C); the per-group ∇W block, by contrast, is a contiguous slab
// of the full gradient (∇W is O_C-major and each group owns a contiguous
// O_C/G range), so outputs are written through zero-copy views.
//
// The dispatch is ONE sched batch whose items are the G groups. A
// participant claims a free slot arena (Z buckets, a staging pair and a
// Ŵ cache) for its chunk and runs each group's whole pipeline inline:
// stage → fill → units → reduce, in the order of a standalone per-group
// execution. The reduce-split gives every unit disjoint bucket rows, so a
// group run by one worker needs no ordering protocol, and its staging, Ŵ
// cache and buckets stay on one core. Cancellation is polled between
// groups only, so a group either writes its complete slab or none of it.
// The workspace holds one slot per possible participant (Config.GroupRing),
// each with G² × fewer bucket bytes than the ungrouped plan at equal Z.

// sliceChannels gathers channels [off, off+width) of every row of src
// (rows × srcC, dense) into dst (rows × width, dense). A full-width slice
// (width == srcC, the G == 1 fallthrough and full-width staging) is one
// contiguous block, so it collapses to a single bulk copy.
func sliceChannels[E any](dst, src []E, rows, srcC, off, width int) {
	if width == srcC {
		copy(dst[:rows*width], src[off:off+rows*width])
		return
	}
	for r := 0; r < rows; r++ {
		copy(dst[r*width:(r+1)*width], src[r*srcC+off:r*srcC+off+width])
	}
}

// scatterChannels writes src (rows × width, dense) into channels
// [off, off+width) of every row of dst (rows × dstC, dense) — the inverse
// of sliceChannels, with the same full-width bulk-copy fast path.
func scatterChannels[E any](dst, src []E, rows, dstC, off, width int) {
	if width == dstC {
		copy(dst[off:off+rows*width], src[:rows*width])
		return
	}
	for r := 0; r < rows; r++ {
		copy(dst[r*dstC+off:r*dstC+off+width], src[r*width:(r+1)*width])
	}
}

// sliceDecodeChannels is sliceChannels fused with the binary16 → float32
// bulk decode: the gathered group slice lands directly in its decoded
// float32 mirror (the FP16 path's operand form). Decoding is exact, so
// the values are bit-identical to gather-then-decode.
func sliceDecodeChannels(dst []float32, src []fp16.Bits, rows, srcC, off, width int) {
	if width == srcC {
		fp16.DecodeSlice(dst[:rows*width], src[off:off+rows*width])
		return
	}
	for r := 0; r < rows; r++ {
		fp16.DecodeSlice(dst[r*width:(r+1)*width], src[r*srcC+off:r*srcC+off+width])
	}
}

// groupSlab returns the zero-copy view of group gi's contiguous ∇W block.
func groupSlab(dst *tensor.Float32, shape tensor.Shape, gi int) *tensor.Float32 {
	n := shape.Elems()
	return &tensor.Float32{Shape: shape, Data: dst.Data[gi*n : (gi+1)*n : (gi+1)*n]}
}

// groupJob is the pooled sched.Task of one grouped execution. Like execJob
// it is embedded in the Workspace, so steady-state dispatch allocates
// nothing.
type groupJob struct {
	run execJob     // the per-group plan's fill/unit core
	p   conv.Params // the grouped layer
	dst []float32
}

// Run executes groups [lo, hi) — the sched.Task contract — on a slot
// claimed for the chunk. RunBatch recruits at most width−1 helpers and
// runs one participant per chunk, so at most min(G, width) Run calls are
// live at once and a slot is always free.
func (j *groupJob) Run(lo, hi int) {
	slot := claimSlot(j.run.ws.ring)
	defer slot.busy.Store(false)
	for gi := lo; gi < hi; gi++ {
		j.runGroup(gi, slot)
	}
}

// claimSlot marks a free slot busy and returns it.
func claimSlot(ring []groupSlot) *groupSlot {
	for i := range ring {
		if s := &ring[i]; !s.busy.Load() && s.busy.CompareAndSwap(false, true) {
			return s
		}
	}
	panic("core: no free grouped slot")
}

// runGroup executes group gi's pipeline on slot. Staging writes the
// channel slice in float32 form: fused with the binary16 decode (FP16 —
// exact, so bits match gather-then-decode) or the storage rounding
// (quantized — element-wise, so bits match rounding every tile). Nothing
// is cleared: the units store every bucket element, and the reduce runs
// the ungrouped phase 3's reduceRange, so the slab is bit-identical to a
// standalone per-group execution.
func (j *groupJob) runGroup(gi int, slot *groupSlot) {
	p, ws, tr := j.p, j.run.ws, j.run.traceOn
	var t0 time.Time
	if tr {
		t0 = time.Now()
	}
	j.run.ops.x.stage(slot.x, 0, p.N*p.IH*p.IW, p.IC, gi*p.ICG(), p.ICG(), j.run.st.round)
	t0 = lap(tr, obs.StageGroupGather, t0)
	j.run.ops.dy.stage(slot.dy, 0, p.N*p.OH()*p.OW(), p.OC, gi*p.OCG(), p.OCG(), j.run.st.round)
	t0 = lap(tr, obs.StageGroupGather, t0)
	j.run.fillRows(0, ws.rowOff[len(ws.rowOff)-1], slot.dy, slot.what32)
	lap(tr, obs.StageWHat, t0)
	j.run.units(0, ws.unitOff[len(ws.unitOff)-1], slot.x, slot.what32, slot.buckets)
	if tr {
		t0 = time.Now()
	}
	n := ws.elems
	reduceRange(j.dst[gi*n:(gi+1)*n:(gi+1)*n], slot.buckets, 0, n)
	lap(tr, obs.StageReduce, t0)
}

// lap records the span since t0 as stage when tracing and returns the
// start of the next span; untraced it reads no clock.
func lap(on bool, stage obs.Stage, t0 time.Time) time.Time {
	if !on {
		return t0
	}
	now := time.Now()
	obs.RecordStage(stage, now.Sub(t0))
	return now
}

// executeGroupedIn is the grouped branch of execute (which has already
// checked the operand shapes and supplied dst). Every storage policy runs
// the regular per-group pipeline, so the eq.(7) error model applies per
// group with the reduced C = I_C/G depth. Reports ok=false when
// cancellation stopped the run; every group's slab then holds either its
// complete gradient or whatever dst held before.
func executeGroupedIn(cfg *Config, ws *Workspace, ops operands, st storage, dst *tensor.Float32, cancel *sched.Batch) (*tensor.Float32, bool) {
	gcfg, p := cfg.group, cfg.Params
	ws = ensureWorkspace(gcfg, ws)
	ws.bindPlans(gcfg, st)
	// Size one slot per possible participant: buckets (slot 0 runs on the
	// workspace's own arena) plus the float32 staging pair and the Ŵ
	// cache, so groups allocate nothing.
	ws.ensureRing(cfg.GroupRing())
	for s := range ws.ring {
		slot := &ws.ring[s]
		if s == 0 {
			slot.buckets = ws.buckets
		} else {
			slot.ensureBuckets(ws.z, ws.elems)
		}
		growF32(&slot.x, p.N*p.IH*p.IW*p.ICG())
		growF32(&slot.dy, p.N*p.OH()*p.OW()*p.OCG())
		growF32(&slot.what32, ws.whatOff[len(ws.whatOff)-1])
	}
	ws.gjob = groupJob{
		run: execJob{cfg: gcfg, ws: ws, ops: ops, st: st, traceOn: obs.TraceEnabled()},
		p:   p, dst: dst.Data,
	}
	defer func() { ws.gjob = groupJob{} }()
	// One group per chunk: workers balance group by group, and sched polls
	// cancellation at every claim, so only whole groups run.
	execPool().RunBatch(p.G(), 1, &ws.gjob, cancel)
	if cancel.Cancelled() {
		return nil, false
	}
	return dst, true
}

// forwardGrouped runs the fused forward pass per group: gather the group's
// input channels, run the ungrouped kernel against the group's contiguous
// filter slab, scatter its output channels back.
func forwardGrouped(p conv.Params, x, w *tensor.Float32) (*tensor.Float32, error) {
	g, icg, ocg := p.G(), p.ICG(), p.OCG()
	pg := p
	pg.IC, pg.OC, pg.Groups = icg, ocg, 0
	xRows := p.N * p.IH * p.IW
	yRows := p.N * p.OH() * p.OW()
	xg := &tensor.Float32{Shape: pg.XShape(), Data: make([]float32, xRows*icg)}
	y := tensor.NewFloat32(p.DYShape())
	slab := pg.DWShape()
	for gi := 0; gi < g; gi++ {
		sliceChannels(xg.Data, x.Data, xRows, p.IC, gi*icg, icg)
		yg, err := Forward(pg, xg, groupSlab(w, slab, gi))
		if err != nil {
			return nil, err
		}
		scatterChannels(y.Data, yg.Data, yRows, p.OC, gi*ocg, ocg)
	}
	return y, nil
}
