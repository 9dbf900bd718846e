package core

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/obs"
	"winrs/internal/tensor"
)

// obsTestLayer is a single-unit, single-segment geometry (F_H=1, F_W=3,
// one width tile, Z forced to 1), so the sched dispatch degenerates to the
// inline path and the steady-state execution has no goroutine bookkeeping
// at all — the strictest surface to pin allocation behavior on.
func obsTestLayer(t testing.TB) (*Config, *tensor.Float32, *tensor.Float32, *tensor.Half, *tensor.Half) {
	t.Helper()
	p := conv.Params{N: 1, IH: 6, IW: 14, FH: 1, FW: 3, IC: 4, OC: 4}
	cfg, err := Configure(p, WithSegments(1), WithFP16())
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.unitOff[len(cfg.unitOff)-1]; got != 1 {
		t.Fatalf("geometry realizes %d work units, want 1 (test needs the serial path)", got)
	}
	rng := rand.New(rand.NewSource(51))
	x := tensor.NewFloat32(p.XShape())
	dy := tensor.NewFloat32(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	return cfg, x, dy, x.ToHalf(), dy.ToHalf()
}

// The disabled-observability path must add exactly 0 allocations per
// steady-state ExecuteIn/ExecuteHalfIn, and the enabled path a bounded
// constant (in practice also 0: timers and UnitTimes stay on the stack).
// GC is paused during measurement so sync.Pool contents are stable.
func TestObservabilityAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pinning runs without -race")
	}
	cfg, x, dy, xh, dyh := obsTestLayer(t)
	ws := NewWorkspace(cfg)
	dst := tensor.NewFloat32(cfg.Params.DWShape())

	// Warm the tile-scratch pool, then freeze the GC so the pool cannot be
	// drained mid-measurement.
	ExecuteIn(cfg, ws, x, dy, dst)
	ExecuteHalfIn(cfg, ws, xh, dyh, dst)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	obs.EnableTrace(false)
	disabled32 := testing.AllocsPerRun(50, func() { ExecuteIn(cfg, ws, x, dy, dst) })
	disabled16 := testing.AllocsPerRun(50, func() { ExecuteHalfIn(cfg, ws, xh, dyh, dst) })
	if disabled32 != 0 {
		t.Errorf("disabled-trace ExecuteIn allocates %v per run, want 0", disabled32)
	}
	if disabled16 != 0 {
		t.Errorf("disabled-trace ExecuteHalfIn allocates %v per run, want 0", disabled16)
	}

	obs.EnableTrace(true)
	defer obs.EnableTrace(false)
	defer obs.ResetTrace()
	enabled32 := testing.AllocsPerRun(50, func() { ExecuteIn(cfg, ws, x, dy, dst) })
	enabled16 := testing.AllocsPerRun(50, func() { ExecuteHalfIn(cfg, ws, xh, dyh, dst) })
	const maxEnabledAllocs = 4 // bounded constant; currently 0 in practice
	if enabled32-disabled32 > maxEnabledAllocs {
		t.Errorf("enabled-trace ExecuteIn adds %v allocs per run, want ≤ %d",
			enabled32-disabled32, maxEnabledAllocs)
	}
	if enabled16-disabled16 > maxEnabledAllocs {
		t.Errorf("enabled-trace ExecuteHalfIn adds %v allocs per run, want ≤ %d",
			enabled16-disabled16, maxEnabledAllocs)
	}
}

// Tracing must observe every stage of an execution: units on both precision
// paths, nested transform/EWM/epilogue times that fit inside the unit, and
// no reduce record, since the plan runs no phase 3.
func TestExecuteRecordsStages(t *testing.T) {
	cfg, x, dy, xh, dyh := obsTestLayer(t)
	obs.ResetTrace()
	obs.EnableTrace(true)
	defer obs.EnableTrace(false)
	defer obs.ResetTrace()

	const calls = 3
	for i := 0; i < calls; i++ {
		Execute(cfg, x, dy)
		ExecuteHalf(cfg, xh, dyh)
	}
	snap := obs.TraceSnapshot()
	units := snap[obs.StageSegmentTile]
	if units.Count != 2*calls { // one unit per call per precision
		t.Fatalf("segment_tile count = %d, want %d", units.Count, 2*calls)
	}
	// An ungrouped Z = 1 plan stores straight into its destination (bucket
	// 0) and runs no phase 3, so no reduce is recorded.
	if snap[obs.StageReduce].Count != 0 {
		t.Errorf("reduce count = %d, want 0", snap[obs.StageReduce].Count)
	}
	if snap[obs.StageWHat].Count != 2*calls { // one Ŵ pre-pass per execution
		t.Errorf("what_transform count = %d, want %d", snap[obs.StageWHat].Count, 2*calls)
	}
	if snap[obs.StageTransform].Count != 2*calls || snap[obs.StageEWM].Count != 2*calls {
		t.Errorf("transform/ewm counts = %d/%d, want %d",
			snap[obs.StageTransform].Count, snap[obs.StageEWM].Count, 2*calls)
	}
	// Nesting invariant: the sampled iterations only split the unit's
	// timed inner loop between transform and EWM, so the two stages sum
	// to a span inside each unit and can never exceed the unit total.
	if nested := snap[obs.StageTransform].Total + snap[obs.StageEWM].Total; nested > units.Total {
		t.Errorf("transform+ewm %v exceeds segment_tile total %v", nested, units.Total)
	}
	// The epilogue is timed once per unit, after the inner loop, so all
	// three nested stages together still fit inside the unit.
	epi := snap[obs.StageEpilogue]
	if epi.Count != 2*calls {
		t.Errorf("epilogue count = %d, want %d", epi.Count, 2*calls)
	}
	if nested := snap[obs.StageTransform].Total + snap[obs.StageEWM].Total + epi.Total; nested > units.Total {
		t.Errorf("transform+ewm+epilogue %v exceeds segment_tile total %v", nested, units.Total)
	}
	if units.Total <= 0 {
		t.Error("segment_tile total duration not recorded")
	}
}

// Tracing must not change results: the traced execution is bit-identical
// to the untraced one.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	p := conv.Params{N: 2, IH: 18, IW: 20, FH: 3, FW: 3, IC: 5, OC: 6, PH: 1, PW: 1}
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewFloat32(p.XShape())
	dy := tensor.NewFloat32(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)

	obs.EnableTrace(false)
	want := Execute(cfg, x, dy)
	obs.EnableTrace(true)
	defer obs.EnableTrace(false)
	defer obs.ResetTrace()
	got := Execute(cfg, x, dy)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("traced result differs at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// A traced grouped execution runs one dense grid over its groups: one Ŵ
// fill and one reduce per call, and one segment_tile and one epilogue
// record per fused unit of every group — inline and through a width-4
// pool.
func TestGroupedExecuteRecordsStages(t *testing.T) {
	p := conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1, Groups: 4}
	cfg, err := Configure(p, WithSegments(2))
	if err != nil {
		t.Fatal(err)
	}
	x, dy := poolLayer(t, 53, p)
	g := uint64(p.G())
	units := uint64(groupPlan(cfg).Units())
	obs.EnableTrace(true)
	defer obs.EnableTrace(false)
	defer obs.ResetTrace()
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			obs.ResetTrace()
			Execute(cfg, x, dy)
			snap := obs.TraceSnapshot()
			for _, c := range []struct {
				stage obs.Stage
				want  uint64
			}{
				{obs.StageWHat, 1},
				{obs.StageReduce, 1},
				{obs.StageSegmentTile, g * units},
				{obs.StageEpilogue, g * units},
			} {
				if got := snap[c.stage].Count; got != c.want {
					t.Errorf("width %d: %s count = %d, want %d", width, c.stage, got, c.want)
				}
			}
		})
	}
}
