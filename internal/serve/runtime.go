package serve

import (
	"context"
	"sync/atomic"

	"winrs/internal/core"
	"winrs/internal/tensor"
)

// FaultHook is the runtime's fault-injection point: when set, it runs on
// the dispatcher worker goroutine at the start of every pooled execution,
// after the workspace and output have been acquired. Returning a non-nil
// error aborts the request with it (mapped like any compute error — a
// context error counts as a cancellation); a panic propagates exactly as a
// compute panic would. The test harness uses it to force panics, slow
// computes (block until ctx.Done()) and cancellations without build tags;
// production never sets it, and the unset check is one atomic load.
type FaultHook func(ctx context.Context, key PlanKey) error

// Runtime executes convolution passes through the plan cache with pooled
// workspaces. It is safe for concurrent use: plans are read-only, and each
// execution borrows a private arena from the entry's pool. Compute itself
// lands on core's process-wide sched pool, so concurrent requests
// co-schedule onto GOMAXPROCS persistent workers instead of each spawning
// a goroutine set — under load, tail latency degrades toward one
// request's serial time rather than oversubscription collapse.
type Runtime struct {
	cache *PlanCache
	hook  atomic.Pointer[FaultHook]
	// borrowed counts workspace/output pairs currently checked out of the
	// entry pools. It returns to zero on every exit path — success,
	// cancellation, compute error, panic — which is what the fault-
	// injection harness asserts to prove the pools don't leak.
	borrowed atomic.Int64
}

// NewRuntime returns a runtime whose plan cache holds about cacheCapacity
// plans.
func NewRuntime(cacheCapacity int) *Runtime {
	return &Runtime{cache: NewPlanCache(cacheCapacity)}
}

// Cache exposes the runtime's plan cache (stats, direct Gets).
func (rt *Runtime) Cache() *PlanCache { return rt.cache }

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
// Safe to call concurrently with executions; in-flight requests may still
// observe the previous hook.
func (rt *Runtime) SetFaultHook(h FaultHook) {
	if h == nil {
		rt.hook.Store(nil)
		return
	}
	rt.hook.Store(&h)
}

// injectFault runs the installed hook, if any.
func (rt *Runtime) injectFault(ctx context.Context, key PlanKey) error {
	if h := rt.hook.Load(); h != nil {
		return (*h)(ctx, key)
	}
	return nil
}

// Borrowed returns the number of workspace/output pairs currently checked
// out of the pools — zero whenever no execution is in flight (leak
// assertions in tests).
func (rt *Runtime) Borrowed() int64 { return rt.borrowed.Load() }

// BackwardFilterPooledCtx computes ∇W via the cached plan for key with
// workspace AND output pooled: use receives the pooled gradient together
// with the plan entry and the cache-hit flag, and the tensor is recycled
// as soon as use returns — so use must serialize or copy it, not retain
// it. This is the daemon's allocation-free hot path. A ctx deadline or
// cancel aborts the execution before its next unit (core.ExecuteInCtx)
// and returns ctx.Err(); the partial result is discarded and the arenas
// are recycled.
func (rt *Runtime) BackwardFilterPooledCtx(ctx context.Context, key PlanKey, x, dy *tensor.Float32,
	use func(dw *tensor.Float32, e *Entry, hit bool) error) error {
	return rt.pooled(ctx, key, use, func(ctx context.Context, e *Entry, ws *core.Workspace, out *tensor.Float32) (*tensor.Float32, error) {
		if e.Cfg == nil {
			return out, e.exec.ExecuteCtx(ctx, key.Params, x, dy, out)
		}
		return core.ExecuteInCtx(ctx, e.Cfg, ws, x, dy, out)
	})
}

// BackwardFilterHalfPooledCtx is BackwardFilterPooledCtx for binary16
// operands (the Tensor-Core path). key.FP16 must be set so the plan
// restricts kernel selection accordingly; the pooled result stays FP32.
func (rt *Runtime) BackwardFilterHalfPooledCtx(ctx context.Context, key PlanKey, x, dy *tensor.Half,
	use func(dw *tensor.Float32, e *Entry, hit bool) error) error {
	return rt.pooled(ctx, key, use, func(ctx context.Context, e *Entry, ws *core.Workspace, out *tensor.Float32) (*tensor.Float32, error) {
		if e.Cfg == nil {
			return out, e.exec.ExecuteHalfCtx(ctx, key.Params, x, dy, out)
		}
		return core.ExecuteHalfInCtx(ctx, e.Cfg, ws, x, dy, out)
	})
}

// pooled is the one execution lifecycle behind both entry points: resolve
// the plan, borrow its arenas, run the fault hook, execute, recycle, then
// hand the result to use. WinRS entries borrow a workspace and an output;
// backend entries (Cfg nil) borrow only the output, because the backends
// manage their own scratch and check cancellation at stage boundaries.
//
// exec returns only once its parallel stages have drained, so the arenas
// are recycled on every normal return. On a panic — from the fault hook
// or compute itself — they are dropped for the GC instead (a sched helper
// could in principle still be writing into a workspace abandoned
// mid-unwind; a dropped arena can corrupt nothing) and the panic
// propagates to the dispatcher's recover.
func (rt *Runtime) pooled(ctx context.Context, key PlanKey,
	use func(dw *tensor.Float32, e *Entry, hit bool) error,
	exec func(ctx context.Context, e *Entry, ws *core.Workspace, out *tensor.Float32) (*tensor.Float32, error)) error {
	e, hit, err := rt.cache.Get(key)
	if err != nil {
		return err
	}
	var ws *core.Workspace
	if e.Cfg != nil {
		ws = e.AcquireWorkspace()
	}
	out := e.acquireOut()
	rt.borrowed.Add(1)
	recycle := false
	defer func() {
		rt.borrowed.Add(-1)
		if recycle {
			if ws != nil {
				e.ReleaseWorkspace(ws)
			}
			e.releaseOut(out)
		}
	}()
	if err := rt.injectFault(ctx, key); err != nil {
		recycle = true
		return err
	}
	dw, err := exec(ctx, e, ws, out)
	recycle = true // execution finished or was fully drained: arenas are quiescent
	if err != nil {
		return err
	}
	return use(dw, e, hit)
}
