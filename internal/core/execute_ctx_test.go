package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"winrs/internal/conv"
	"winrs/internal/sched"
	"winrs/internal/tensor"
)

// An uncancelled ExecuteInCtx must be bit-identical to ExecuteIn on every
// differential-sweep shape, FP32 and FP16.
func TestExecuteInCtxMatchesExecuteIn(t *testing.T) {
	ctx := context.Background()
	for _, tc := range poolSweepCases {
		cfg, err := Configure(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		x, dy := poolLayer(t, 91, tc.p)
		want := ExecuteIn(cfg, nil, x, dy, nil)
		got, err := ExecuteInCtx(ctx, cfg, nil, x, dy, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		equalBits(t, tc.name, got.Data, want.Data)

		cfgH, err := Configure(tc.p, WithFP16())
		if err != nil {
			continue // geometry has no FP16 kernel pair
		}
		xh, dyh := x.ToHalf(), dy.ToHalf()
		wantH := ExecuteHalfIn(cfgH, nil, xh, dyh, nil)
		gotH, err := ExecuteHalfInCtx(ctx, cfgH, nil, xh, dyh, nil)
		if err != nil {
			t.Fatalf("%s fp16: %v", tc.name, err)
		}
		equalBits(t, tc.name+"_fp16", gotH.Data, wantH.Data)
	}
}

// A context that is already done must abort before any work, returning its
// error and a nil result.
func TestExecuteInCtxPreCancelled(t *testing.T) {
	p := conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 3, PH: 1, PW: 1}
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	x, dy := poolLayer(t, 92, p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := ExecuteInCtx(ctx, cfg, nil, x, dy, nil)
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("pre-cancelled: out=%v err=%v, want nil + context.Canceled", out, err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	out, err = ExecuteInCtx(dctx, cfg, nil, x, dy, nil)
	if !errors.Is(err, context.DeadlineExceeded) || out != nil {
		t.Fatalf("expired deadline: out=%v err=%v, want nil + DeadlineExceeded", out, err)
	}

	xh, dyh := x.ToHalf(), dy.ToHalf()
	cfgH, err := Configure(p, WithFP16())
	if err != nil {
		t.Fatal(err)
	}
	outH, err := ExecuteHalfInCtx(ctx, cfgH, nil, xh, dyh, nil)
	if !errors.Is(err, context.Canceled) || outH != nil {
		t.Fatalf("pre-cancelled fp16: out=%v err=%v", outH, err)
	}
}

// Cancelling mid-execution must abandon the run — context.Canceled, nil
// result — and leave the workspace reusable: a follow-up uncancelled run
// on the same workspace must produce the exact uncancelled result (the
// write-once contract — every run stores each bucket element before the
// reduce reads it, whatever a cancelled run left there — that lets the
// serving runtime recycle arenas after a cancelled request).
func TestExecuteInCtxCancelMidRunWorkspaceReusable(t *testing.T) {
	p := conv.Params{N: 32, IH: 64, IW: 64, FH: 5, FW: 5, IC: 16, OC: 16, PH: 2, PW: 2}
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	x, dy := poolLayer(t, 93, p)
	cancelMidRun(t, cfg, x, dy, nil)
}

// Cancelling a grouped plan mid-run — a depthwise plan on its
// channel-wide grid and a G = 2 plan on the dense grid — must leave its
// workspace and a reused destination, into which its segment-0 units
// store, fit for the next run, which must match the uncancelled result
// bit for bit; inline and through a width-4 pool.
func TestExecuteInCtxCancelMidRunGrouped(t *testing.T) {
	for _, p := range []conv.Params{
		{N: 2, IH: 20, IW: 20, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1, Groups: 8},
		{N: 2, IH: 20, IW: 20, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1, Groups: 2},
	} {
		x, dy := poolLayer(t, 73, p)
		for _, width := range []int{1, 4} {
			t.Run(fmt.Sprintf("G%d_width%d", p.G(), width), func(t *testing.T) {
				withTestPool(t, width, func() {
					cfg, err := Configure(p, WithSegments(3))
					if err != nil {
						t.Fatal(err)
					}
					cancelMidRun(t, cfg, x, dy, tensor.NewFloat32(p.DWShape()))
				})
			})
		}
	}
}

// stopPlans are a dense and a depthwise plan, planned at pool width 1,
// whose unit grids put several units in each chunk of an inline run.
func stopPlans(t *testing.T) []*Config {
	t.Helper()
	var cfgs []*Config
	for _, p := range []conv.Params{
		{N: 1, IH: 14, IW: 14, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1},
		{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 256, OC: 256, PH: 1, PW: 1, Groups: 256},
	} {
		cfg, err := Configure(p, WithSegments(4))
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Units() < 8 {
			t.Fatalf("%v: %d units, want at least 8 (two per chunk)", p, cfg.Units())
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// A call cancelled from inside the grid, after its first unit, runs no
// further unit, though the rest of the unit's chunk is claimed: on a dense
// and a depthwise plan at pool width 1.
func TestExecuteInCtxCancelStopsBeforeNextUnit(t *testing.T) {
	withTestPool(t, 1, func() {
		for _, cfg := range stopPlans(t) {
			x, dy := poolLayer(t, 74, cfg.Params)
			ctx, cancel := context.WithCancel(context.Background())
			ran := 0
			prev := testUnitDone
			testUnitDone = func(b *sched.Batch) {
				ran++
				cancel()
				b.Cancel()
			}
			_, err := ExecuteInCtx(ctx, cfg, nil, x, dy, nil)
			testUnitDone = prev
			cancel()
			if !errors.Is(err, context.Canceled) || ran != 1 {
				t.Errorf("%v: err %v after %d units, want context.Canceled after 1", cfg.Params, err, ran)
			}
		}
	})
}

// A deadline that passes while a unit runs stops the call before the next
// unit even when nothing else can run: at pool width and GOMAXPROCS 1 the
// first unit spins past the deadline without yielding, so neither the
// context's timer nor its watcher gets the processor to cancel the batch.
// The call returns context.DeadlineExceeded; dense and depthwise plans.
func TestExecuteInCtxDeadlineStopsBeforeNextUnit(t *testing.T) {
	withTestPool(t, 1, func() {
		for _, cfg := range stopPlans(t) {
			x, dy := poolLayer(t, 75, cfg.Params)
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			deadline, _ := ctx.Deadline()
			ran := 0
			prev := testUnitDone
			testUnitDone = func(*sched.Batch) {
				ran++
				for !time.Now().After(deadline) {
				}
			}
			_, err := ExecuteInCtx(ctx, cfg, nil, x, dy, nil)
			testUnitDone = prev
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) || ran != 1 {
				t.Errorf("%v: err %v after %d units, want context.DeadlineExceeded after 1", cfg.Params, err, ran)
			}
		}
	})
}

// cancelMidRun cancels runs of cfg from inside the unit grid and checks
// each cancelled run's workspace, and dst when given, on the next run: it
// must produce the uncancelled result bit for bit.
func cancelMidRun(t *testing.T, cfg *Config, x, dy, dst *tensor.Float32) {
	t.Helper()
	want := ExecuteIn(cfg, nil, x, dy, nil)
	ws := NewWorkspace(cfg)
	ExecuteIn(cfg, ws, x, dy, dst) // warm the workspace and caches

	// The cancel fires from inside the grid, after the first unit of the
	// attempt: a context watcher or a timer goroutine would have to be
	// scheduled mid-grid, which at GOMAXPROCS 1 waits for an asynchronous
	// preemption that a fast run can outlast.
	var cancel context.CancelFunc
	var armed atomic.Bool
	prev := testUnitDone
	testUnitDone = func(b *sched.Batch) {
		if armed.CompareAndSwap(true, false) {
			cancel()
			b.Cancel()
		}
	}
	defer func() { testUnitDone = prev }()

	const maxAttempts = 10
	cancelled, attempts := 0, 0
	for ; attempts < maxAttempts && cancelled < 2; attempts++ {
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		armed.Store(true)
		out, err := ExecuteInCtx(ctx, cfg, ws, x, dy, dst)
		armed.Store(false)
		cancel()
		switch {
		case err == nil:
			equalBits(t, "raced-but-completed", out.Data, want.Data)
		case errors.Is(err, context.Canceled):
			if out != nil {
				t.Fatal("cancelled run returned a partial result")
			}
			cancelled++
			// The workspace must be quiescent and fully reusable right
			// away: the next run on it must match the uncancelled result
			// bit for bit (the write-once contract the serving runtime
			// relies on to recycle arenas after a cancelled request).
			got, err := ExecuteInCtx(context.Background(), cfg, ws, x, dy, dst)
			if err != nil {
				t.Fatalf("attempt %d: reuse after cancel: %v", attempts, err)
			}
			equalBits(t, "reuse-after-cancel", got.Data, want.Data)
		default:
			t.Fatalf("attempt %d: unexpected error %v", attempts, err)
		}
	}
	if cancelled == 0 {
		t.Errorf("no run cancelled mid-grid in %d attempts; compute too fast for the cancel window", attempts)
	}
	t.Logf("%d/%d attempts cancelled mid-run", cancelled, attempts)
}
