package core

import (
	"context"

	"winrs/internal/sched"
	"winrs/internal/tensor"
)

// ExecuteInCtx is ExecuteIn with cooperative cancellation: when ctx is
// cancelled or its deadline expires, the execution stops before the next
// unit — the pre-pass and the reduction at their next chunk claim of the
// shared sched pool, the unit grid before its next unit — and ctx.Err()
// is returned (context.DeadlineExceeded once the deadline has passed, even
// before ctx's own timer has fired).
// The partial result is discarded (the returned tensor is nil; a supplied
// dst may be partly overwritten — the plan's segment-0 units store into it
// as they finish, and its phase 3 reduces into it in place, or a merged
// plan's units fold their residual sub-units into it) and the workspace is
// quiescent on return: no pool participant still touches it, so pooled
// callers may recycle it immediately (the next execution stores every
// bucket element, dst's included, afresh).
//
// An uncancelled ExecuteInCtx produces a result bit-identical to
// ExecuteIn. Unlike ExecuteIn, each call arms one context watcher, so the
// ctx path is not allocation-free; latency-critical loops that never
// cancel should keep calling ExecuteIn.
func ExecuteInCtx(ctx context.Context, cfg *Config, ws *Workspace, x, dy, dst *tensor.Float32) (*tensor.Float32, error) {
	return executeCtx(ctx, cfg, ws, planar(cfg.Params, x.Shape, dy.Shape,
		operand{f32: x.Data}, operand{f32: dy.Data}, "Execute"), fp32Storage, dst)
}

// ExecuteHalfInCtx is ExecuteInCtx for the emulated FP16 Tensor-Core path.
func ExecuteHalfInCtx(ctx context.Context, cfg *Config, ws *Workspace, x, dy *tensor.Half, dst *tensor.Float32) (*tensor.Float32, error) {
	return executeCtx(ctx, cfg, ws, planar(cfg.Params, x.Shape, dy.Shape,
		operand{f16: x.Data}, operand{f16: dy.Data}, "ExecuteHalf"), halfStorage, dst)
}

// testUnitDone, when non-nil, runs after every unit, dense or
// channel-wide, with the execution's cancellation handle (nil when it has
// none): the mid-run cancellation tests cancel from inside the grid
// through it, so the cancel lands after the first unit however the
// goroutines are scheduled. Production leaves it nil.
var testUnitDone func(*sched.Batch)

// executeCtx runs execute under a context watcher and ctx's deadline: the
// batch checks the clock itself, since the watcher and ctx's timer need a
// free processor, and every one may be running units.
func executeCtx(ctx context.Context, cfg *Config, ws *Workspace, ops operands, st storage, dst *tensor.Float32) (*tensor.Float32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var cancel sched.Batch
	cancel.Deadline, _ = ctx.Deadline()
	stop := context.AfterFunc(ctx, cancel.Cancel)
	defer stop()
	out, ok := execute(cfg, ws, ops, st, dst, &cancel)
	if !ok {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.DeadlineExceeded // the batch saw the deadline first
	}
	return out, nil
}
