package core

import (
	"runtime"
	"sync"
	"time"

	"winrs/internal/obs"
	"winrs/internal/sched"
	"winrs/internal/tensor"
)

// Workspace is the reusable scratch arena of a plan: the ∇W-sized FP32
// buckets of the paper's partitioning phase plus the Ŵ cache — the
// gathered, filter-transformed ∇Y panels that every fused unit reads (one
// α·O_C panel per (segment row, width tile, batch image), filled once per
// execution and reused across all G·F_H·B·(F_W/n) units of a segment).
// Bucket 0 is the call's destination, as in the paper's Table 2, so the
// arena holds Buckets−1 buckets: Z−1, or none for a plan whose residual
// units run inside its fast units. A grouped plan's buckets and cache span
// the whole layer: each bucket holds the G per-group ∇W slabs.
// Executions through ExecuteIn reuse it across steps, so a steady-state
// caller (the serving runtime's workspace pool, a training loop) pays the
// allocations once instead of per gradient. It holds no schedule: every
// execution reads its plan's tables, so one workspace serves any plan it
// Fits.
//
// A Workspace is NOT safe for concurrent use; the Config it serves is
// read-only and may be shared freely.
type Workspace struct {
	z, elems int

	// buckets is the call's bucket list, one entry per bucket the plan's
	// units write (Config.Buckets); the workspace owns entries 1…z−1.
	// Entry 0 is bound to the call's destination by execute and cleared
	// before it returns, so a pooled workspace never keeps a caller's
	// result reachable.
	buckets [][]float32

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

// NewWorkspace allocates the bucket arena for cfg: buckets 1…Buckets−1,
// uncleared (tensor.NewFloat32Uncleared), since every execution stores
// each bucket element before anything reads it (see ensureWorkspace).
func NewWorkspace(cfg *Config) *Workspace {
	z, shape := cfg.Buckets(), cfg.Params.DWShape()
	ws := &Workspace{z: z, elems: shape.Elems(), buckets: make([][]float32, z)}
	for i := 1; i < z; i++ {
		ws.buckets[i] = tensor.NewFloat32Uncleared(shape).Data
	}
	return ws
}

// Fits reports whether the workspace matches cfg's bucket geometry: the
// same bucket count and gradient size.
func (ws *Workspace) Fits(cfg *Config) bool {
	return ws != nil && ws.z == cfg.Buckets() && ws.elems == cfg.Params.DWShape().Elems()
}

// Bytes returns the arena footprint: the buckets, exactly
// Config.WorkspaceBytes, (Buckets−1)·|∇W|, plus whatever Ŵ-cache and
// operand-mirror arenas the executed storage policies have materialized.
// The cache stays within the analytic bound documented on
// Config.WHatCacheBytes.
func (ws *Workspace) Bytes() int64 {
	return int64(ws.z-1)*int64(ws.elems)*4 +
		int64(cap(ws.what32)+cap(ws.xMirror)+cap(ws.dyMirror))*4
}

// ensureWorkspace returns a workspace for cfg: the caller's if it fits, a
// fresh one when ws is nil. Bucket contents are never cleared, neither
// when allocated nor between executions: every execution's units store
// each bucket element exactly once (see writeOutput) — segment 0 straight
// into the destination — before phase 3 or a merged plan's residual fold
// reads it, so whatever the allocator or a previous, possibly cancelled,
// run left there is overwritten.
func ensureWorkspace(cfg *Config, ws *Workspace) *Workspace {
	if ws == nil {
		return NewWorkspace(cfg)
	}
	if !ws.Fits(cfg) {
		panic("core: workspace does not fit configuration")
	}
	return ws
}

// reduceGrain is the smallest element range of one phase-3 chunk: below
// it, recruiting a pool helper costs more than the Kahan loop it shares.
const reduceGrain = 4096

// reduceChunk returns phase 3's chunk length over the elems ∇W elements on
// a pool of the given width: RunBatch's automatic grain (≈4 chunks per
// participant), floored at reduceGrain.
func reduceChunk(elems, workers int) int {
	w := 4 * workers
	return max(reduceGrain, (elems+w-1)/w)
}

// ExecuteIn runs the configured FP32 plan with caller-provided scratch: ws
// supplies the buckets and Ŵ cache (nil allocates fresh) and dst receives
// the gradient (nil allocates fresh). The plan's segment-0 units store
// straight into dst, so dst must not overlap x or dy. With both
// provided, the steady-state execution allocates nothing — the serving
// runtime's zero-allocation hot path: the pre-pass and the unit grid both
// schedule onto the persistent sched pool through the task embedded in
// the workspace. The workspace keeps no reference to dst once the call
// returns.
//
// When obs.TraceEnabled, the pre-pass records the what_transform stage,
// every fused unit records segment-tile plus sampled transform and EWM
// durations (a merged plan's fast unit with its residual sub-units and
// their fold), and phase 3, where the plan runs one, records the reduce
// stage; the disabled path costs one atomic load per call.
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
// (allocated uncleared when nil: segment 0 stores every element before
// anything reads it). Depthwise plans run the channel-wide unit grid of
// depthwise.go instead of the fill and the dense grid. Every plan binds
// dst as bucket 0 for the call: segment 0's units store into it, phase 3
// reduces buckets 1…Z−1 into it in place — each element reads every
// bucket, dst included, before its one store, so running in place changes
// no bit — and a plan with one bucket runs no phase 3: a Z = 1 plan, or a
// merged one, whose fast units fold their residual sub-units into dst
// themselves.
// cancel may be nil (never cancelled). It reports ok=false when
// cancellation stopped the run; the workspace is then quiescent — no pool
// participant still touches it — but its buckets and dst may hold partial
// results, and no result is produced, so a fresh dst that a cancelled run
// left partly unwritten never reaches a caller.
func execute(cfg *Config, ws *Workspace, ops operands, st storage, dst *tensor.Float32, cancel *sched.Batch) (*tensor.Float32, bool) {
	p := cfg.Params
	if dst == nil {
		dst = tensor.NewFloat32Uncleared(p.DWShape())
	} else if dst.Shape != p.DWShape() {
		panic("core: reduce destination shape mismatch")
	}
	ws = ensureWorkspace(cfg, ws)
	ws.bindPlans(cfg, st)
	ws.job = execJob{cfg: cfg, ws: ws, ops: ops, st: st, traceOn: obs.TraceEnabled(), cancel: cancel}
	ws.buckets[0] = dst.Data
	defer func() { ws.job, ws.buckets[0] = execJob{}, nil }()
	pool := execPool()
	if cfg.dwBlock > 0 {
		ws.job.phase = phaseChannels
		pool.RunBatch(cfg.Units(), 0, &ws.job, cancel)
	} else {
		growF32(&ws.what32, cfg.whatOff[len(cfg.whatOff)-1])
		ws.job.x = ops.x.resident(&ws.xMirror, p.IC, st.round)
		ws.job.dy = ops.dy.resident(&ws.dyMirror, p.OC, st.round)
		ws.job.phase = phaseFill
		ws.runPhase(pool, cfg.rowOff[len(cfg.rowOff)-1], 0, obs.StageWHat, cancel)
		ws.job.phase = phaseUnits
		pool.RunBatch(cfg.Units(), 0, &ws.job, cancel)
	}
	if cancel.Cancelled() {
		return nil, false
	}
	if ws.z == 1 {
		return dst, true
	}
	ws.job.phase = phaseReduce
	ws.runPhase(pool, ws.elems, reduceChunk(ws.elems, pool.Workers()), obs.StageReduce, cancel)
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
// panels; a depthwise unit's tile panels, with its X̂ ring in xHatF), a
// dense unit's chunk of iterations and the output-transform scratch
// (float32 Aᵀ, plus the bucket rows of a depthwise unit). Units
// borrow it from a process-wide free list so steady-state executions
// allocate no transform scratch at all; the slices grow to the largest
// geometry seen and are then reused as-is.
type tileScratch struct {
	v, wRaw, wHatF, xRaw, xHatF, acc []float32
	iters                            []tileIter
}

// scratchFree is the free list of unit scratch, last in first out. Unlike
// a sync.Pool, garbage collection does not empty it, so a steady-state
// caller allocates no scratch across GC cycles either. It keeps at most
// maxIdleScratch entries, four per GOMAXPROCS at start-up and at least
// eight: one unit runs per pool participant, and concurrent callers add a
// participant each. A scratch returned to a full list is left to the
// collector.
var scratchFree struct {
	sync.Mutex
	list []*tileScratch
}

var maxIdleScratch = 4 * max(2, runtime.GOMAXPROCS(0))

func getTileScratch() *tileScratch {
	scratchFree.Lock()
	defer scratchFree.Unlock()
	n := len(scratchFree.list)
	if n == 0 {
		return new(tileScratch)
	}
	s := scratchFree.list[n-1]
	scratchFree.list[n-1] = nil
	scratchFree.list = scratchFree.list[:n-1]
	return s
}

func putTileScratch(s *tileScratch) {
	scratchFree.Lock()
	if len(scratchFree.list) < maxIdleScratch {
		scratchFree.list = append(scratchFree.list, s)
	}
	scratchFree.Unlock()
}

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
