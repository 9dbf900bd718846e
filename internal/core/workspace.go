package core

import (
	"sync"
	"time"

	"winrs/internal/kahan"
	"winrs/internal/obs"
	"winrs/internal/sched"
	"winrs/internal/tensor"
)

// Workspace is the reusable scratch arena of one plan: the Z ∇W-sized FP32
// buckets of the paper's partitioning phase plus the Ŵ cache — the
// gathered, filter-transformed ∇Y panels that every fused unit reads (one
// α·O_C panel per (segment row, width tile, batch image), filled once per
// execution and reused across all G·F_H·(F_W/n) units of a segment). A
// grouped plan's buckets and cache span the whole layer, like an
// ungrouped plan's: each bucket holds the G per-group ∇W slabs.
// Executions through ExecuteIn reuse it across steps, so a steady-state
// caller (the serving runtime's workspace pool, a training loop) pays the
// allocations once instead of per gradient.
//
// A Workspace is NOT safe for concurrent use; the Config it was built for
// is read-only and may be shared freely.
type Workspace struct {
	z, elems int
	buckets  [][]float32

	// Schedule tables of the bound config: global unit, Ŵ-cache element
	// and global segment-row prefixes per segment. Rebuilt only when the
	// workspace is used with a different *Config (rebind).
	cfg     *Config
	unitOff []int
	whatOff []int
	rowOff  []int

	// Ŵ cache arena, grown lazily and shared by every storage policy (one
	// workspace may serve ExecuteIn and ExecuteHalfIn alike): rounded
	// policies store their rounded panels here as float32 values.
	what32 []float32

	// Float32 operand mirrors, grown lazily: X and ∇Y decoded once per
	// FP16 execution, or copied and rounded once per quantized one, so
	// units never decode or round operands per use. FP32 executions read
	// the caller's tensors directly.
	xMirror, dyMirror []float32

	// Per-segment transforms under the current call's storage policy.
	plans []unitPlan

	// Reusable pool task: rewritten per call so the steady-state dispatch
	// passes a pointer-to-field as sched.Task without boxing allocations.
	job execJob
}

// NewWorkspace allocates the bucket arena for cfg and binds its schedule
// tables.
func NewWorkspace(cfg *Config) *Workspace {
	elems := cfg.Params.DWShape().Elems()
	ws := &Workspace{z: cfg.Z(), elems: elems, buckets: make([][]float32, cfg.Z())}
	for i := range ws.buckets {
		ws.buckets[i] = make([]float32, elems)
	}
	ws.rebind(cfg)
	return ws
}

// rebind (re)derives the schedule tables for cfg. A no-op when the
// workspace already serves this exact config — the steady-state path.
func (ws *Workspace) rebind(cfg *Config) {
	if ws.cfg == cfg {
		return
	}
	ws.cfg = cfg
	off, _ := schedule(cfg)
	ws.unitOff = off
	nseg := len(cfg.Segments)
	if cap(ws.whatOff) < nseg+1 {
		ws.whatOff = make([]int, nseg+1)
		ws.rowOff = make([]int, nseg+1)
	}
	ws.whatOff = ws.whatOff[:nseg+1]
	ws.rowOff = ws.rowOff[:nseg+1]
	for i, seg := range cfg.Segments {
		tiles := seg.Cols() / seg.K.R
		ws.whatOff[i+1] = ws.whatOff[i] +
			seg.Rows()*tiles*cfg.Params.N*seg.K.Alpha*cfg.Params.OC
		ws.rowOff[i+1] = ws.rowOff[i] + seg.Rows()
	}
}

// Fits reports whether the workspace matches cfg's bucket geometry (same
// segment count and gradient size). Schedule tables rebind automatically.
func (ws *Workspace) Fits(cfg *Config) bool {
	return ws != nil && ws.z == cfg.Z() && ws.elems == cfg.Params.DWShape().Elems()
}

// Bytes returns the arena footprint: buckets plus whatever Ŵ-cache and
// operand-mirror arenas the executed storage policies have materialized.
// The cache stays within the analytic bound documented on
// Config.WHatCacheBytes.
func (ws *Workspace) Bytes() int64 {
	return int64(ws.z)*int64(ws.elems)*4 +
		int64(cap(ws.what32)+cap(ws.xMirror)+cap(ws.dyMirror))*4
}

// ensureWorkspace returns a workspace for cfg: the caller's if it fits
// (rebinding its schedule tables when cfg changed), a fresh one when ws is
// nil. Bucket contents are never cleared: every execution's units store
// each bucket element exactly once (see writeOutput) before phase 3 reads
// it, so whatever a previous — possibly cancelled — run left there is
// overwritten.
func ensureWorkspace(cfg *Config, ws *Workspace) *Workspace {
	if ws == nil {
		return NewWorkspace(cfg)
	}
	if !ws.Fits(cfg) {
		panic("core: workspace does not fit configuration")
	}
	ws.rebind(cfg)
	return ws
}

// reduceGrain is the smallest element range of one phase-3 chunk: below
// it, recruiting a pool helper costs more than the Kahan loop it shares.
const reduceGrain = 4096

// reduceRange is phase 3 over ∇W elements [lo, hi): the Kahan-compensated
// sum of the Z buckets into dst, each element visiting the buckets in
// bucket order, or a plain copy when Z = 1. Any split of the element range
// therefore produces the same bits.
func reduceRange(dst []float32, buckets [][]float32, lo, hi int) {
	if len(buckets) == 1 {
		copy(dst[lo:hi], buckets[0][lo:hi])
		return
	}
	kahan.ReduceBucketsRange(dst, buckets, lo, hi)
}

// ExecuteIn runs the configured FP32 plan with caller-provided scratch: ws
// supplies the buckets and Ŵ cache (nil allocates fresh) and dst receives
// the gradient (nil allocates fresh). With both provided, the steady-state
// execution allocates nothing — the serving runtime's zero-allocation hot
// path: the pre-pass and the unit grid both schedule onto the persistent
// sched pool through the task embedded in the workspace.
//
// When obs.TraceEnabled, the pre-pass records the what_transform stage,
// every fused unit records segment-tile plus sampled transform and EWM
// durations, and the reduction records the reduce stage; the disabled path
// costs one atomic load per call.
func ExecuteIn(cfg *Config, ws *Workspace, x, dy, dst *tensor.Float32) *tensor.Float32 {
	out, _ := execute(cfg, ws, planar(cfg.Params, x.Shape, dy.Shape,
		operand{f32: x.Data}, operand{f32: dy.Data}, "Execute"), fp32Storage, dst, nil)
	return out
}

// ExecuteHalfIn is ExecuteIn for the emulated FP16 Tensor-Core path.
// Buckets and the reduction stay FP32 (paper §5.2), so the same Workspace
// type serves both precisions; the Ŵ cache holds binary16-rounded values
// in float32 form here.
func ExecuteHalfIn(cfg *Config, ws *Workspace, x, dy *tensor.Half, dst *tensor.Float32) *tensor.Float32 {
	out, _ := execute(cfg, ws, planar(cfg.Params, x.Shape, dy.Shape,
		operand{f16: x.Data}, operand{f16: dy.Data}, "ExecuteHalf"), halfStorage, dst, nil)
	return out
}

// execute is the one execution path behind every BFC entry point — FP32, FP16,
// quantized, grouped and 3-D: bring the operands into float32 form, fill
// the Ŵ cache, run the dense unit grid, Kahan-reduce the buckets into dst
// (allocated when nil). Depthwise plans run the channel-wide unit grid of
// depthwise.go instead of the fill and the dense grid.
// cancel may be nil (never cancelled). It reports ok=false when
// cancellation stopped the run; the workspace is then quiescent — no pool
// participant still touches it — but its buckets and dst may hold partial
// results, and no result is produced. On a grouped plan phase 3 reduces
// whole group slabs per chunk, so a cancelled run leaves every group's
// ∇W slab complete or untouched.
func execute(cfg *Config, ws *Workspace, ops operands, st storage, dst *tensor.Float32, cancel *sched.Batch) (*tensor.Float32, bool) {
	p := cfg.Params
	if dst == nil {
		dst = tensor.NewFloat32(p.DWShape())
	} else if dst.Shape != p.DWShape() {
		panic("core: reduce destination shape mismatch")
	}
	ws = ensureWorkspace(cfg, ws)
	ws.bindPlans(cfg, st)
	ws.job = execJob{cfg: cfg, ws: ws, ops: ops, st: st, traceOn: obs.TraceEnabled(), dst: dst.Data}
	defer func() { ws.job = execJob{} }()
	pool := execPool()
	// Phase 3 runs over element ranges: RunBatch's automatic grain (≈4
	// chunks per participant), floored at reduceGrain.
	w := 4 * pool.Workers()
	grain := max(reduceGrain, (ws.elems+w-1)/w)
	if g := p.G(); g > 1 {
		// Whole group slabs per reduce chunk, so cancellation between
		// chunks leaves each slab complete or untouched.
		slab := ws.elems / g
		grain = (grain + slab - 1) / slab * slab
	}
	if cfg.dwBlock > 0 {
		ws.job.phase = phaseChannels
		pool.RunBatch(ws.unitOff[len(ws.unitOff)-1], 0, &ws.job, cancel)
	} else {
		growF32(&ws.what32, ws.whatOff[len(ws.whatOff)-1])
		ws.job.x = ops.x.resident(&ws.xMirror, p.IC, st.round)
		ws.job.dy = ops.dy.resident(&ws.dyMirror, p.OC, st.round)
		ws.job.phase = phaseFill
		ws.runPhase(pool, ws.rowOff[len(ws.rowOff)-1], 0, obs.StageWHat, cancel)
		ws.job.phase = phaseUnits
		pool.RunBatch(ws.unitOff[len(ws.unitOff)-1], 0, &ws.job, cancel)
	}
	if cancel.Cancelled() {
		return nil, false
	}
	ws.job.phase = phaseReduce
	ws.runPhase(pool, ws.elems, grain, obs.StageReduce, cancel)
	if cancel.Cancelled() {
		return nil, false
	}
	return dst, true
}

// runPhase runs the current phase of ws.job over [0, total) on the pool,
// recording its wall time as stage when tracing.
func (ws *Workspace) runPhase(pool *sched.Pool, total, chunk int, stage obs.Stage, cancel *sched.Batch) {
	if !ws.job.traceOn {
		pool.RunBatch(total, chunk, &ws.job, cancel)
		return
	}
	t0 := time.Now()
	pool.RunBatch(total, chunk, &ws.job, cancel)
	obs.RecordStage(stage, time.Since(t0))
}

// bindPlans resolves every segment's transforms under the call's storage
// policy, once per execution instead of per unit.
func (ws *Workspace) bindPlans(cfg *Config, st storage) {
	ws.plans = ws.plans[:0]
	for _, seg := range cfg.Segments {
		ws.plans = append(ws.plans, st.plan(seg.K))
	}
}

// tileScratch holds the per-unit scratch of one unit kernel invocation:
// the accumulators v, the gather/transform panels (a dense unit's chunk
// panels), a dense unit's chunk of iterations and the output-transform
// scratch (float32 Aᵀ, plus one bucket row for a depthwise unit). Units
// borrow it from a process-wide pool so steady-state executions allocate
// no transform scratch at all; the slices grow to the largest geometry
// seen and are then reused as-is.
type tileScratch struct {
	v, wRaw, wHatF, xRaw, xHatF, acc []float32
	iters                            []tileIter
}

var tileScratchPool = sync.Pool{New: func() any { return new(tileScratch) }}

func getTileScratch() *tileScratch  { return tileScratchPool.Get().(*tileScratch) }
func putTileScratch(s *tileScratch) { tileScratchPool.Put(s) }

// growF32 resizes *buf to length n, reusing its backing array when large
// enough. Contents are unspecified; callers overwrite or zero as needed.
func growF32(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growF32Zero is growF32 plus zeroing, for accumulators.
func growF32Zero(buf *[]float32, n int) []float32 {
	s := growF32(buf, n)
	for i := range s {
		s[i] = 0
	}
	return s
}
