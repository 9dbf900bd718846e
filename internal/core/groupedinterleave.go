package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"winrs/internal/obs"
	"winrs/internal/sched"
	"winrs/internal/tensor"
)

// Interleaved group dispatch: instead of G sequential per-group WinRS
// passes (each paying its own gather, two pool barriers and a serial
// reduce — ruinous when per-group work is tiny, i.e. depthwise), ALL
// groups' work units are fused into one sched batch over an interleaved
// (group, unit) index space. One chunk-self-scheduling run, one
// cancellation poll domain.
//
// Per group the unit stream is: 1 prep unit (claim the ring slot),
// 2 gather units (sliceChannels of X and ∇Y into the slot's staging
// slabs), the Ŵ-cache fill rows, then the fused execution units; the last
// execution unit to finish reduces the slot's buckets into the group's
// contiguous ∇W slab. Groups are assigned round-robin to a bounded ring of
// min(G, pool width, groupRingSlots) staging slots, so group gi+1's gather
// overlaps group gi's compute (double buffering) while the workspace grows
// only by the ring factor — still G²/ring below the ungrouped plan.
//
// Ordering is enforced with per-group atomic phase counters and bounded
// spin waits. Deadlock freedom rests on the sched contract: chunks are
// claimed in strictly increasing index order, and every wait condition
// depends only on lower-indexed units, so the earliest incomplete unit is
// always runnable and its (already determined) owner is positioned at or
// before it. The inline pool path runs chunks in index order, where every
// wait is pre-satisfied. Waits poll the cancellation handle because a
// cancelled batch drains chunks without running them — a dependency
// counter may then never complete, and the waiter must bail instead.
//
// Bit-identity with G separate per-group WinRS passes: each (segment,
// f_h, j) unit stores a disjoint element range of its segment's bucket,
// segments use distinct buckets, and the per-group reduce runs the same
// reduceRange as the ungrouped phase 3 — so the interleaving changes no
// accumulation order within any group.

// groupWidthForce, when positive, overrides the effective co-scheduling
// width (still capped at the pool's width). Tests set it to drive the
// pooled pipeline — phase gates, ring hand-off, chunked claims — on
// machines whose CPU count would otherwise select the inline path.
var groupWidthForce = 0

// groupRingSlots bounds the staging-slot ring: two slots double-buffer the
// pipeline (group gi+1 stages and fills while gi executes and reduces) and
// cap the workspace at 2× one slot's per-group arena — the growth budget
// Config.WorkspaceBytes reports.
const groupRingSlots = 2

// groupRing returns the realized ring depth: min(G, pool width,
// groupRingSlots). A width-1 pool cannot overlap anything, so it keeps
// a single slot.
func groupRing(g, width int) int {
	r := groupRingSlots
	if width < r {
		r = width
	}
	if g < r {
		r = g
	}
	if r < 1 {
		r = 1
	}
	return r
}

// groupPhase is the per-group progress ledger of one interleaved run.
// Plain atomics (no mutex, no channel): completions count down, waiters
// poll with backoff. Reset by the driver before each batch. Padded to a
// cache line so one group's waiters polling and the neighbor group's
// count-downs never ping-pong the same line.
type groupPhase struct {
	prep   atomic.Int32 // 1 once the group has claimed its ring slot
	gather atomic.Int32 // staging gathers outstanding (X and ∇Y)
	fill   atomic.Int32 // Ŵ-cache rows outstanding
	exec   atomic.Int32 // fused units outstanding
	done   atomic.Int32 // 1 once reduced into the ∇W slab (slot is free)
	_      [44]byte     // pad to 64 B
}

// groupJob is the pooled sched.Task of one interleaved grouped execution.
// Like execJob it is embedded in the Workspace, so steady-state dispatch
// allocates nothing.
type groupJob struct {
	run       execJob // the per-group plan's fill/unit core
	cfg       *Config
	x, dy     operand
	dst       *tensor.Float32
	cancel    *sched.Batch
	ring      int
	perGroup  int // units per group: 3 + fillRows + execUnits
	fillRows  int
	slabElems int // one group's ∇W slab size
	xRows     int
	dyRows    int
}

// Run executes interleaved units [lo, hi) — the sched.Task contract.
func (j *groupJob) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		gi := i / j.perGroup
		j.runUnit(gi, i-gi*j.perGroup)
	}
}

// wait polls until c reaches want, with staged backoff: a short busy
// poll catches the µs-scale intra-group handoffs (prep → gather →
// fill → exec resolve almost immediately once claims track the runnable
// frontier), an occasional Gosched covers oversubscription, and waits
// that are genuinely long (a ring slot still held by a group two behind)
// fall back to brief sleeps. Tight Gosched loops are specifically what
// this avoids: each Gosched round-trips the global scheduler lock, and
// several workers spinning there starve the productive ones — profiled
// at >90% of batch CPU before the backoff. Returns false when the batch
// was cancelled — the counter may then never complete because cancelled
// chunks are drained without running.
func (j *groupJob) wait(c *atomic.Int32, want int32) bool {
	for spins := 0; c.Load() != want; spins++ {
		if j.cancel.Cancelled() {
			return false
		}
		switch {
		case spins < 256:
			// busy poll: the load above is the whole body
		case spins < 1024:
			runtime.Gosched()
		default:
			time.Sleep(10 * time.Microsecond)
		}
	}
	return true
}

// runUnit executes local unit `local` of group gi. The per-group unit
// order (prep → gathers → fill rows → exec units) carries the intra-group
// dependencies; the ring hand-off (prep waits for group gi−ring to
// retire) carries the cross-group one.
func (j *groupJob) runUnit(gi, local int) {
	ws := j.run.ws
	st := &ws.gphase[gi]
	slot := &ws.ring[gi%j.ring]
	switch {
	case local == 0:
		// Prep: claim the slot once its previous occupant has reduced.
		// Nothing is cleared: the group's units store every bucket
		// element, so fresh slots and slots left dirty by a cancelled run
		// are handled alike.
		if gi >= j.ring && !j.wait(&ws.gphase[gi-j.ring].done, 1) {
			return
		}
		st.prep.Store(1)
	case local <= 2:
		if !j.wait(&st.prep, 1) {
			return
		}
		j.gatherUnit(gi, local == 1, slot)
		st.gather.Add(-1)
	case local < 3+j.fillRows:
		if !j.wait(&st.gather, 0) {
			return
		}
		j.run.fillRows(local-3, local-2, slot.dy, slot.what32)
		st.fill.Add(-1)
	default:
		if !j.wait(&st.fill, 0) {
			return
		}
		u := local - 3 - j.fillRows
		j.run.units(u, u+1, slot.x, slot.what32, slot.buckets)
		if st.exec.Add(-1) == 0 {
			// Last fused unit of the group: reduce the slot into the
			// group's ∇W slab and retire the slot. The reduce only ever
			// runs when EVERY unit of the group actually executed, so a
			// cancelled run never writes a partial group.
			j.reduceGroup(gi, slot)
			st.done.Store(1)
		}
	}
}

// gatherUnit stages one operand of group gi into the slot's float32
// staging: the channel-sliced copy, fused with the binary16 decode (FP16 —
// exact, so bits match gather-then-decode) or the storage rounding
// (quantized — element-wise, so bits match rounding every tile).
func (j *groupJob) gatherUnit(gi int, isX bool, slot *groupSlot) {
	var t0 time.Time
	if j.run.traceOn {
		t0 = time.Now()
	}
	p := j.cfg.Params
	if isX {
		j.x.stage(slot.x, j.xRows, p.IC, gi*p.ICG(), p.ICG(), j.run.st.round)
	} else {
		j.dy.stage(slot.dy, j.dyRows, p.OC, gi*p.OCG(), p.OCG(), j.run.st.round)
	}
	if j.run.traceOn {
		obs.RecordStage(obs.StageGroupGather, time.Since(t0))
	}
}

// reduceGroup is phase 3 for one group: Kahan-reduce the slot's buckets
// into the group's contiguous ∇W slab through the ungrouped phase 3's
// reduceRange, so the result is bit-identical to a standalone per-group
// execution. It runs inside the group's last unit rather than as a pooled
// phase, because the groups themselves already run concurrently.
func (j *groupJob) reduceGroup(gi int, slot *groupSlot) {
	var t0 time.Time
	if j.run.traceOn {
		t0 = time.Now()
	}
	n := j.slabElems
	reduceRange(j.dst.Data[gi*n:(gi+1)*n:(gi+1)*n], slot.buckets, 0, n)
	if j.run.traceOn {
		obs.RecordStage(obs.StageReduce, time.Since(t0))
	}
}

// runGroupedInterleaved executes a grouped plan as one interleaved sched
// batch under storage policy st. Reports ok=false when cancellation
// stopped the run; groups then either hold their complete gradient slab
// or were never written — no partial-group bytes.
func runGroupedInterleaved(cfg *Config, ws *Workspace, ops operands, st storage, dst *tensor.Float32, cancel *sched.Batch) bool {
	gcfg := cfg.group
	if !ws.Fits(cfg) {
		panic("core: workspace does not fit configuration")
	}
	ws.rebind(gcfg)
	ws.bindPlans(gcfg, st)
	p := cfg.Params

	pool := execPool()
	g := p.G()
	// Effective co-scheduling width: the pool's width clamped by both
	// GOMAXPROCS (a runtime drop degrades wide pools, mirroring
	// sched.RunBatch) and the machine's actual CPU count. The interleave's
	// phase gates assume a wait resolves on another core; when only one
	// hardware thread exists (GOMAXPROCS oversubscription, cgroup-pinned
	// containers), every wait is a forced reschedule and the pipeline runs
	// strictly better inline.
	width := pool.Workers()
	if n := runtime.GOMAXPROCS(0); width > n {
		width = n
	}
	if n := runtime.NumCPU(); width > n {
		width = n
	}
	if groupWidthForce > 0 {
		width = groupWidthForce
		if w := pool.Workers(); width > w {
			width = w
		}
	}
	ring := groupRing(g, width)
	fillRows := ws.rowOff[len(ws.rowOff)-1]
	execUnits := ws.unitOff[len(ws.unitOff)-1]
	perGroup := 3 + fillRows + execUnits
	icg, ocg := p.ICG(), p.OCG()
	xRows := p.N * p.IH * p.IW
	dyRows := p.N * p.OH() * p.OW()
	whatElems := ws.whatOff[len(ws.whatOff)-1]

	// Size the slot ring: buckets (overwritten by each group's units; slot
	// 0 runs on the workspace's own arena) plus the float32 staging pair
	// and the Ŵ-cache arena, so units allocate nothing.
	ws.ensureRing(ring)
	for s := 0; s < ring; s++ {
		slot := &ws.ring[s]
		if s == 0 {
			slot.buckets = ws.buckets
		} else {
			slot.ensureBuckets(ws.z, ws.elems)
		}
		growF32(&slot.x, xRows*icg)
		growF32(&slot.dy, dyRows*ocg)
		growF32(&slot.what32, whatElems)
	}

	if cap(ws.gphase) < g {
		ws.gphase = make([]groupPhase, g)
	}
	ws.gphase = ws.gphase[:g]
	for i := range ws.gphase {
		st := &ws.gphase[i]
		st.prep.Store(0)
		st.gather.Store(2)
		st.fill.Store(int32(fillRows))
		st.exec.Store(int32(execUnits))
		st.done.Store(0)
	}

	ws.gjob = groupJob{
		run: execJob{cfg: gcfg, ws: ws, rows: ops.rows, st: st, traceOn: obs.TraceEnabled()},
		cfg: cfg, x: ops.x, dy: ops.dy,
		dst: dst, cancel: cancel,
		ring: ring, perGroup: perGroup, fillRows: fillRows,
		slabElems: gcfg.Params.DWShape().Elems(),
		xRows:     xRows, dyRows: dyRows,
	}
	total := g * perGroup
	if width == 1 {
		// Single effective thread: run the whole unit stream in index
		// order on this goroutine (every wait is pre-satisfied), checking
		// cancellation at group boundaries — the same full-or-nothing
		// granularity the pooled path has, without recruiting helpers that
		// could only time-slice one core.
		for lo := 0; lo < total && !cancel.Cancelled(); lo += perGroup {
			ws.gjob.Run(lo, lo+perGroup)
		}
	} else {
		// Claim unit-by-unit. The batch is a dependency pipeline, not an
		// embarrassingly parallel grid: a multi-unit chunk hands one worker
		// a serial span whose later units wait on the earlier ones, so its
		// co-workers stall behind gates only the span owner can open. With
		// chunk=1 every worker keeps converging on the runnable frontier
		// and waits stay µs-scale. The claim cost (one atomic add per unit)
		// is noise next to the cheapest unit.
		pool.RunBatch(total, 1, &ws.gjob, cancel)
	}
	ws.gjob = groupJob{}
	return !cancel.Cancelled()
}
