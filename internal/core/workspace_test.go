package core

import (
	"math/rand"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/tensor"
)

// ExecuteIn with a reused workspace and destination must be bit-identical
// to the allocating Execute path, across repeated reuses.
func TestExecuteInMatchesExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := conv.Params{N: 2, IH: 20, IW: 20, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1}
	x64, dy64, _ := randLayer64(rng, p)
	x, dy := x64.ToFloat32(), dy64.ToFloat32()
	cfg, err := Configure(p, WithSegments(4))
	if err != nil {
		t.Fatal(err)
	}
	want := Execute(cfg, x, dy)
	ws := NewWorkspace(cfg)
	if !ws.Fits(cfg) {
		t.Fatal("fresh workspace should fit its config")
	}
	// The arena holds Z buckets; the paper's workspace figure counts the
	// Z−1 extra copies beyond ∇W itself.
	if ws.Bytes() < cfg.WorkspaceBytes() {
		t.Errorf("workspace %d bytes, below config's %d", ws.Bytes(), cfg.WorkspaceBytes())
	}
	dst := tensor.NewFloat32(p.DWShape())
	for step := 0; step < 3; step++ {
		got := ExecuteIn(cfg, ws, x, dy, dst)
		if got != dst {
			t.Fatal("ExecuteIn should return the provided destination")
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("step %d: pooled path diverged at %d: %v vs %v",
					step, i, got.Data[i], want.Data[i])
			}
		}
	}
	// nil workspace and nil destination allocate fresh ones.
	got := ExecuteIn(cfg, nil, x, dy, nil)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("nil-ws path diverged at %d", i)
		}
	}
}

func TestExecuteHalfInMatchesExecuteHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := conv.Params{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1}
	x64 := tensor.NewFloat64(p.XShape())
	dy64 := tensor.NewFloat64(p.DYShape())
	for i := range x64.Data {
		x64.Data[i] = rng.Float64()
	}
	for i := range dy64.Data {
		dy64.Data[i] = rng.Float64() * 0.01
	}
	xh := x64.ToFloat32().ToHalf()
	dyh := dy64.ToFloat32().ToHalf()
	cfg, err := Configure(p, WithFP16(), WithSegments(3))
	if err != nil {
		t.Fatal(err)
	}
	want := ExecuteHalf(cfg, xh, dyh)
	ws := NewWorkspace(cfg)
	dst := tensor.NewFloat32(p.DWShape())
	for step := 0; step < 3; step++ {
		got := ExecuteHalfIn(cfg, ws, xh, dyh, dst)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("step %d: pooled half path diverged at %d", step, i)
			}
		}
	}
}

// A workspace sized for a different configuration must be rejected rather
// than silently corrupting buckets.
func TestExecuteInMisfitWorkspacePanics(t *testing.T) {
	p := conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1}
	cfgA, err := Configure(p, WithSegments(2))
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err := Configure(p, WithSegments(7))
	if err != nil {
		t.Fatal(err)
	}
	if cfgA.Z() == cfgB.Z() {
		t.Skip("segment counts coincide; no misfit to test")
	}
	x := tensor.NewFloat32(p.XShape())
	dy := tensor.NewFloat32(p.DYShape())
	defer func() {
		if recover() == nil {
			t.Error("expected panic for misfit workspace")
		}
	}()
	ExecuteIn(cfgB, NewWorkspace(cfgA), x, dy, nil)
}

// Steady-state allocations of the fully pooled path: caller-held workspace
// and destination, warm scratch pool. AllocsPerRun runs with GOMAXPROCS=1,
// which drives the serial scheduler — the path a pool-warm server hits per
// worker. Allow a few stray allocations for runtime noise, but the seed
// path's per-call bucket arena (Z−1 slices + result) must be gone.
func TestExecuteInAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	rng := rand.New(rand.NewSource(43))
	p := conv.Params{N: 1, IH: 24, IW: 24, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1}
	x64, dy64, _ := randLayer64(rng, p)
	x, dy := x64.ToFloat32(), dy64.ToFloat32()
	cfg, err := Configure(p, WithSegments(6))
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(cfg)
	dst := tensor.NewFloat32(p.DWShape())
	ExecuteIn(cfg, ws, x, dy, dst) // warm the scratch pool
	allocs := testing.AllocsPerRun(20, func() {
		ExecuteIn(cfg, ws, x, dy, dst)
	})
	t.Logf("pooled ExecuteIn: %v allocs/run (serial path)", allocs)
	if allocs > 2 {
		t.Errorf("pooled ExecuteIn allocates %v objects/run, want ≤2", allocs)
	}
}

// Seed-style path: fresh buckets and result every call.
func BenchmarkExecuteAlloc(b *testing.B) {
	p := conv.Params{N: 2, IH: 32, IW: 32, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1}
	rng := rand.New(rand.NewSource(2))
	x := tensor.NewFloat32(p.XShape())
	dy := tensor.NewFloat32(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	cfg, err := Configure(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Execute(cfg, x, dy)
	}
}

// Pooled path: reused workspace and destination.
func BenchmarkExecuteInPooled(b *testing.B) {
	p := conv.Params{N: 2, IH: 32, IW: 32, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1}
	rng := rand.New(rand.NewSource(2))
	x := tensor.NewFloat32(p.XShape())
	dy := tensor.NewFloat32(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	cfg, err := Configure(p)
	if err != nil {
		b.Fatal(err)
	}
	ws := NewWorkspace(cfg)
	dst := tensor.NewFloat32(p.DWShape())
	ExecuteIn(cfg, ws, x, dy, dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExecuteIn(cfg, ws, x, dy, dst)
	}
}

// A grouped workspace has the ungrouped layout and Bytes counts every
// arena once: after one FP32 execution (no operand mirrors) it holds Z
// whole-layer buckets and the whole-layer Ŵ cache, whatever the pool
// width.
func TestGroupedWorkspaceBytesCountsArenasOnce(t *testing.T) {
	p := conv.Params{N: 1, IH: 8, IW: 8, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1, Groups: 2}
	cfg, err := Configure(p, WithSegments(2))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Z() != 2 {
		t.Fatalf("Z = %d, want 2", cfg.Z())
	}
	x, dy := poolLayer(t, 44, p)
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			ws := NewWorkspace(cfg)
			ExecuteIn(cfg, ws, x, dy, nil)
			dw := int64(p.DWShape().Elems())
			if want := int64(cfg.Z())*dw*4 + cfg.WHatCacheBytes(); ws.Bytes() != want {
				t.Errorf("width %d: grouped workspace Bytes() = %d, want %d (Z·|∇W| %d × 4 + Ŵ cache %d)",
					width, ws.Bytes(), want, int64(cfg.Z())*dw, cfg.WHatCacheBytes())
			}
		})
	}
}
