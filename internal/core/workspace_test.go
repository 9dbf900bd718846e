package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

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
	// The arena holds the Z−1 buckets of the paper's workspace figure:
	// bucket 0 is the destination itself.
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
// arena once: after one FP32 execution (no operand mirrors) it holds the
// paper's (Z−1) whole-layer buckets, bucket 0 being the destination, and
// the whole-layer Ŵ cache, whatever the pool width. A G = 2 plan on the
// dense grid, and a depthwise plan, which holds no Ŵ cache: MobileNet's
// dw9 (7²×1024, G = 1024) realizes Z = 2 on one 36,864-byte bucket.
func TestGroupedWorkspaceBytesCountsArenasOnce(t *testing.T) {
	for _, tc := range []struct {
		p conv.Params
		z int
	}{
		{conv.Params{N: 1, IH: 8, IW: 8, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1, Groups: 2}, 2},
		{conv.Params{N: 1, IH: 7, IW: 7, FH: 3, FW: 3, IC: 1024, OC: 1024, PH: 1, PW: 1, Groups: 1024}, 0},
	} {
		x, dy := poolLayer(t, 44, tc.p)
		for _, width := range []int{1, 4} {
			withTestPool(t, width, func() {
				var opts []Option
				if tc.z > 0 {
					opts = append(opts, WithSegments(tc.z))
				}
				cfg, err := Configure(tc.p, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.Z() != 2 || cfg.WorkspaceBytes() != int64(tc.p.DWShape().Elems())*4 {
					t.Fatalf("G=%d: Z = %d, %d workspace bytes; want Z = 2 on one bucket", tc.p.G(), cfg.Z(), cfg.WorkspaceBytes())
				}
				ws := NewWorkspace(cfg)
				ExecuteIn(cfg, ws, x, dy, nil)
				if want := cfg.WorkspaceBytes() + cfg.WHatCacheBytes(); ws.Bytes() != want {
					t.Errorf("G=%d width %d: Bytes() = %d, want %d (buckets %d + Ŵ cache %d)",
						tc.p.G(), width, ws.Bytes(), want, cfg.WorkspaceBytes(), cfg.WHatCacheBytes())
				}
			})
		}
	}
}

// zLayer realizes Z = 1, 2 and 3 under WithSegments(z): one Ω8(3,6) tile
// per row, no residual column.
var zLayer = conv.Params{N: 1, IH: 12, IW: 6, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1}

func configureZ(t *testing.T, p conv.Params, z int) *Config {
	t.Helper()
	cfg, err := Configure(p, WithSegments(z))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Z() != z {
		t.Fatalf("realized Z = %d, want %d", cfg.Z(), z)
	}
	return cfg
}

// An ungrouped plan's bucket 0 is its destination, so after one FP32
// execution (no operand mirrors) the workspace holds exactly the paper's
// (Z−1)·|∇W| buckets plus the Ŵ cache.
func TestWorkspaceBytesUngroupedIsPaperFigure(t *testing.T) {
	x, dy := poolLayer(t, 45, zLayer)
	for _, z := range []int{1, 2, 3} {
		cfg := configureZ(t, zLayer, z)
		ws := NewWorkspace(cfg)
		ExecuteIn(cfg, ws, x, dy, nil)
		if want := cfg.WorkspaceBytes() + cfg.WHatCacheBytes(); ws.Bytes() != want {
			t.Errorf("Z=%d: Bytes() = %d, want %d (buckets %d + Ŵ cache %d)",
				z, ws.Bytes(), want, cfg.WorkspaceBytes(), cfg.WHatCacheBytes())
		}
	}
}

// Every plan holds buckets 1…Z−1 of its ∇W, so a workspace last used by
// an ungrouped plan serves a grouped plan of equal bucket count and |∇W|,
// and the reverse, with results bit-equal to fresh workspaces.
func TestWorkspaceFitsAcrossGrouping(t *testing.T) {
	pg := zLayer
	pg.Groups, pg.IC = 2, 2*zLayer.IC // I_C/G = I_C: the same ∇W size
	cfg, cfgG := configureZ(t, zLayer, 2), configureZ(t, pg, 2)
	if cfg.Params.DWShape().Elems() != cfgG.Params.DWShape().Elems() {
		t.Fatal("the two plans' gradients differ in size")
	}
	x, dy := poolLayer(t, 47, zLayer)
	xg, dyg := poolLayer(t, 48, pg)
	want, wantG := ExecuteIn(cfg, nil, x, dy, nil), ExecuteIn(cfgG, nil, xg, dyg, nil)
	for _, first := range []*Config{cfg, cfgG} {
		ws := NewWorkspace(first)
		if !ws.Fits(cfg) || !ws.Fits(cfgG) {
			t.Fatalf("a workspace for the G=%d plan does not fit both plans", first.Params.G())
		}
		for i := 0; i < 2; i++ {
			equalBits(t, "ungrouped", ExecuteIn(cfg, ws, x, dy, nil).Data, want.Data)
			equalBits(t, "grouped", ExecuteIn(cfgG, ws, xg, dyg, nil).Data, wantG.Data)
		}
	}
}

// After ExecuteIn returns, the workspace keeps no reference to the
// destination it bound as bucket 0: a finalizer on dst's data runs while
// the workspace stays live. A pooled workspace that kept one would hold
// a caller's whole result per plan. Ungrouped plans at Z = 1 and 2, and
// a depthwise and a G = 2 plan at Z = 2.
func TestExecuteInReleasesDestination(t *testing.T) {
	pd, pg := zLayer, zLayer
	pd.OC, pd.Groups = zLayer.IC, zLayer.IC
	pg.Groups = 2
	for _, tc := range []struct {
		p conv.Params
		z int
	}{{zLayer, 1}, {zLayer, 2}, {pd, 2}, {pg, 2}} {
		cfg := configureZ(t, tc.p, tc.z)
		x, dy := poolLayer(t, 46, tc.p)
		ws := NewWorkspace(cfg)
		freed := make(chan struct{})
		func() {
			dst := tensor.NewFloat32(tc.p.DWShape())
			runtime.SetFinalizer(&dst.Data[0], func(*float32) { close(freed) })
			ExecuteIn(cfg, ws, x, dy, dst)
		}()
		released := false
		for i := 0; i < 100 && !released; i++ {
			runtime.GC()
			select {
			case <-freed:
				released = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !released {
			t.Errorf("G=%d Z=%d: destination still reachable after ExecuteIn returned", tc.p.G(), tc.z)
		}
		runtime.KeepAlive(ws)
	}
}
