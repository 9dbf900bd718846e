// Package sched provides the process-wide persistent worker pool behind
// every parallel execution path: the BFC unit grids, the Ŵ-cache fill
// pass, the forward/backward-data row loops, the 3-D task grids and, via
// For, the loops of the direct, GEMM, FFT and non-fused Winograd
// baselines all schedule onto the same parked workers, so concurrent
// callers (e.g. simultaneous winrs-serve requests, whichever backend
// serves them) co-schedule instead of each spawning and tearing down a
// private goroutine set per call.
//
// The design mirrors GPU-style persistent blocks with chunked
// self-scheduling: a Pool of width W keeps W−1 goroutines parked on a
// channel (the submitting goroutine is the W-th participant), and a
// submitted batch is claimed in chunks of consecutive indices — one
// atomic add per chunk, not per unit — until the index space is
// exhausted. Helpers are recruited best-effort: when every worker is busy
// with other batches the submitter still drives its own batch to
// completion alone, so admission never deadlocks and tail latency under
// load degrades to the serial time of one request rather than to
// oversubscription collapse.
//
// The steady-state hot path allocates nothing: batch descriptors are
// pooled, publication is a pointer send on a buffered channel, and
// completion is an atomic unit count plus one buffered-channel signal.
// A finished batch drops its task before returning, so a helper token
// still queued on the channel pins only the pooled descriptor, never the
// task's operands.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Task is a batch of units indexed [0, total) whose sub-ranges can run
// independently and in any order. Implementations must be safe for
// concurrent Run calls on disjoint ranges.
type Task interface {
	// Run executes units [lo, hi).
	Run(lo, hi int)
}

// funcTask adapts a closure to Task (convenience paths; boxing may
// allocate, so zero-alloc callers implement Task on a reused struct).
type funcTask func(lo, hi int)

func (f funcTask) Run(lo, hi int) { f(lo, hi) }

// Batch is the cancellation handle of one (or several chained) submitted
// runs. The zero value is ready to use: pass it to RunBatch, and Cancel it
// from any goroutine to stop the run at the next chunk claim. Cancellation
// is cooperative and chunk-granular — chunks already claimed finish, every
// later claim is skipped (but still accounted, so RunBatch returns through
// the normal completion protocol and the caller may immediately reuse or
// recycle the task's state). Tasks may check Cancelled between their own
// items to stop sooner. A cancelled run's partial results are
// unspecified; callers discard them.
type Batch struct {
	// Deadline, when not zero, cancels the batch once the clock passes it,
	// with no Cancel call: a timer or watcher that would call Cancel needs
	// a free processor, and every one may be running the batch's chunks.
	// Set it before the batch is shared.
	Deadline time.Time

	cancelled atomic.Bool
}

// Cancel requests the batch stop at the next chunk claim. Idempotent and
// safe from any goroutine.
func (b *Batch) Cancel() { b.cancelled.Store(true) }

// Cancelled reports whether Cancel has been called or the clock has passed
// Deadline. A nil handle is never cancelled, so unconditional checks need
// no guard.
func (b *Batch) Cancelled() bool {
	return b != nil && (b.cancelled.Load() || b.expired())
}

// expired reports whether the clock has passed a set Deadline; kept out of
// Cancelled so the nil and Cancel checks inline.
func (b *Batch) expired() bool {
	return !b.Deadline.IsZero() && time.Now().After(b.Deadline)
}

// batch is one submitted run. Participants claim chunks off next until it
// passes total; whoever completes the final unit signals done. refs
// counts everyone holding a pointer to the batch (submitter + delivered
// channel tokens) so the descriptor returns to the pool only when no
// goroutine can still touch it.
type batch struct {
	task      Task
	cancel    *Batch // optional cancellation handle; nil = not cancellable
	next      atomic.Int64
	completed atomic.Int64
	total     int64
	chunk     int64
	refs      atomic.Int64
	done      chan struct{}
}

var batchPool = sync.Pool{
	New: func() any { return &batch{done: make(chan struct{}, 1)} },
}

// runChunks claims and executes chunks until the index space is
// exhausted, reporting whether this participant completed the final unit.
// Once the batch is cancelled, claims keep draining the index space
// without running the task — one atomic add per skipped chunk — so the
// completion count still reaches total and every waiter unblocks.
func (b *batch) runChunks() (finishedLast bool) {
	for {
		hi := b.next.Add(b.chunk)
		lo := hi - b.chunk
		if lo >= b.total {
			return false
		}
		if hi > b.total {
			hi = b.total
		}
		if !b.cancel.Cancelled() {
			b.task.Run(int(lo), int(hi))
		}
		if b.completed.Add(hi-lo) == b.total {
			return true
		}
	}
}

// release drops one reference and recycles the descriptor when it was the
// last. Safe to call from any participant; by construction the last
// release happens after every chunk has finished.
func (b *batch) release() {
	if b.refs.Add(-1) == 0 {
		batchPool.Put(b)
	}
}

// Pool is a persistent worker pool of the given width: width−1 goroutines
// parked on a channel plus the submitting goroutine. A nil or width-1
// Pool runs every batch inline on the caller.
type Pool struct {
	ch    chan *batch
	width int
}

// NewPool starts a pool of the given width (clamped to ≥1). The parked
// workers live for the life of the process unless Close is called.
func NewPool(width int) *Pool {
	if width < 1 {
		width = 1
	}
	p := &Pool{width: width}
	if width > 1 {
		// Buffered so recruiting helpers never blocks the submitter; a
		// token that is never picked up costs one stale receive later.
		p.ch = make(chan *batch, 8*width)
		for i := 0; i < width-1; i++ {
			go p.worker()
		}
	}
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the shared process-wide pool, sized to GOMAXPROCS at
// first use.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(runtime.GOMAXPROCS(0)) })
	return defaultPool
}

// Workers returns the pool's parallelism width (including the submitter).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.width
}

// Close parks no more work and lets the worker goroutines exit. It must
// only be called after every Run has returned (tests; production pools
// live for the process lifetime).
func (p *Pool) Close() {
	if p != nil && p.ch != nil {
		close(p.ch)
	}
}

// worker is one parked participant: it sleeps on the channel, helps drive
// whatever batch it receives to exhaustion, and goes back to sleep.
func (p *Pool) worker() {
	for b := range p.ch {
		if b.runChunks() {
			b.done <- struct{}{}
		}
		b.release()
	}
}

// Run executes task over the index range [0, total), splitting it into
// chunks that participants claim with one atomic add each. chunk ≤ 0
// selects an automatic grain (≈4 chunks per participant, so stragglers
// re-balance without per-unit contention). The calling goroutine always
// participates and Run returns only when every unit has completed;
// results therefore have the same happens-before edge as a serial loop.
func (p *Pool) Run(total, chunk int, task Task) {
	p.RunBatch(total, chunk, task, nil)
}

// RunBatch is Run with a cancellation handle: while c stays uncancelled
// the execution is identical to Run (a nil c costs one predictable branch
// per chunk), and once c.Cancel is called — from any goroutine, typically
// a context watcher — no further chunk starts. RunBatch still returns only
// when every claimed chunk has finished and the remaining index space has
// been drained, so the happens-before edge of Run is preserved: after a
// cancelled RunBatch returns, no participant touches the task again.
func (p *Pool) RunBatch(total, chunk int, task Task, c *Batch) {
	if total <= 0 || c.Cancelled() {
		return
	}
	width := p.Workers()
	// Respect a runtime GOMAXPROCS drop: a wide pool in a single-proc
	// process (the CI GOMAXPROCS=1 leg) degrades to the inline path.
	if g := runtime.GOMAXPROCS(0); width > g {
		width = g
	}
	if chunk < 1 {
		// Ceiling division: flooring undersizes the chunk whenever
		// width·4 does not divide total, producing up to width·4 extra
		// queue transitions per batch — measurable on the fused kernel
		// tier, whose per-unit work is now short enough that dispatch
		// overhead shows. Ceil keeps at most 4·width chunks.
		chunk = (total + width*4 - 1) / (width * 4)
		if chunk < 1 {
			chunk = 1
		}
	}
	helpers := width - 1
	if maxHelpers := (total+chunk-1)/chunk - 1; helpers > maxHelpers {
		helpers = maxHelpers
	}
	if helpers <= 0 || p == nil || p.ch == nil {
		if c == nil {
			task.Run(0, total)
			return
		}
		// Inline, but chunked: a cancel from another goroutine still takes
		// effect at chunk granularity instead of after the whole range.
		for lo := 0; lo < total && !c.Cancelled(); lo += chunk {
			hi := lo + chunk
			if hi > total {
				hi = total
			}
			task.Run(lo, hi)
		}
		return
	}

	b := batchPool.Get().(*batch)
	b.task = task
	b.cancel = c
	b.total = int64(total)
	b.chunk = int64(chunk)
	b.next.Store(0)
	b.completed.Store(0)
	// Publish refs before any token is visible to a worker, then correct
	// for tokens that did not fit the channel. The submitter's own
	// reference keeps the count positive throughout the adjustment.
	b.refs.Store(int64(helpers) + 1)
	sent := 0
	for i := 0; i < helpers; i++ {
		select {
		case p.ch <- b:
			sent++
		default:
			// Every worker is busy and the queue is full: the submitter
			// (plus already-recruited helpers) carries the batch.
			i = helpers
		}
	}
	if sent < helpers {
		b.refs.Add(int64(sent - helpers))
	}

	if !b.runChunks() {
		// Some helper is still inside a claimed chunk; it signals done
		// after completing the final unit.
		<-b.done
	}
	// Every unit has run, so no participant reads task or cancel again.
	// Drop them now: a helper token still queued behind other batches
	// keeps the descriptor reachable until a worker drains it, and with it
	// everything the task holds (a RunFunc closure's operands, a whole
	// Workspace behind an embedded job).
	b.task, b.cancel = nil, nil
	b.release()
}

// RunFunc is Run with a plain function (boxing the closure may allocate;
// hot paths implement Task instead).
func (p *Pool) RunFunc(total, chunk int, f func(lo, hi int)) {
	p.Run(total, chunk, funcTask(f))
}

// For runs f(i) for every i in [0, n) on the Default pool, one index per
// claim, and returns when every call has returned. It is the loop of the
// baseline convolutions, whose iterations (an output channel, a tile, an
// FFT plane, a K-slice) each write a disjoint part of the result and are
// coarse enough that per-index claims balance the tail best.
func For(n int, f func(i int)) {
	Default().RunFunc(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}
