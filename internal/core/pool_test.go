package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/sched"
	"winrs/internal/tensor"
)

// withTestPool runs fn with the shared execution pool replaced by a fresh
// pool of the given width and GOMAXPROCS raised to match (Run caps its
// effective width at runtime GOMAXPROCS, so a 1-CPU test host would
// otherwise silently take the inline path).
func withTestPool(t testing.TB, width int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(width)
	p := sched.NewPool(width)
	testPool = p
	defer func() {
		testPool = nil
		p.Close()
		runtime.GOMAXPROCS(prev)
	}()
	fn()
}

// poolSweepCases mirrors the top-level differential sweep grid: filter
// shapes, paddings, channel counts and the r=1/tiny-O_W edge shapes that
// exercise the fallback kernel pairs.
var poolSweepCases = []struct {
	name string
	p    conv.Params
	segs []int
}{
	{"3x3_pad1", conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 5, PH: 1, PW: 1}, []int{0, 1, 2, 4}},
	{"3x3_batched", conv.Params{N: 3, IH: 10, IW: 10, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1}, []int{0, 2}},
	{"5x5_pad2", conv.Params{N: 2, IH: 14, IW: 16, FH: 5, FW: 5, IC: 2, OC: 3, PH: 2, PW: 2}, []int{0, 2}},
	{"7x7", conv.Params{N: 1, IH: 16, IW: 18, FH: 7, FW: 7, IC: 2, OC: 2}, []int{0}},
	{"1x3_row_filter", conv.Params{N: 1, IH: 6, IW: 14, FH: 1, FW: 3, IC: 4, OC: 4}, []int{0, 1}},
	{"3x1_col_filter", conv.Params{N: 1, IH: 14, IW: 9, FH: 3, FW: 1, IC: 3, OC: 2}, []int{0}},
	{"1x1_pointwise", conv.Params{N: 2, IH: 8, IW: 11, FH: 1, FW: 1, IC: 3, OC: 4}, []int{0}},
	{"nonpow2_channels", conv.Params{N: 1, IH: 13, IW: 17, FH: 3, FW: 3, IC: 5, OC: 7, PH: 1, PW: 1}, []int{0, 3}},
	{"tiny_ow", conv.Params{N: 2, IH: 7, IW: 5, FH: 3, FW: 3, IC: 2, OC: 2}, []int{0}},
	{"wide_row", conv.Params{N: 1, IH: 4, IW: 50, FH: 3, FW: 3, IC: 2, OC: 2, PW: 1}, []int{0, 2}},
}

func poolLayer(t testing.TB, seed int64, p conv.Params) (*tensor.Float32, *tensor.Float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewFloat32(p.XShape())
	dy := tensor.NewFloat32(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	return x, dy
}

func equalBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pool result differs from inline at %d: %v vs %v",
				name, i, got[i], want[i])
		}
	}
}

// Pooled execution must be bit-identical to the inline (GOMAXPROCS=1)
// path on every differential-sweep shape: units write disjoint bucket
// regions and the reduction is sequential, so scheduling order cannot
// matter. Covers FP32 and FP16, across forced segmentations.
func TestPoolMatchesInline2D(t *testing.T) {
	for _, tc := range poolSweepCases {
		for _, z := range tc.segs {
			opts := []Option{}
			if z > 0 {
				opts = append(opts, WithSegments(z))
			}
			cfg, err := Configure(tc.p, opts...)
			if err != nil {
				t.Fatalf("%s z=%d: %v", tc.name, z, err)
			}
			cfg16, err := Configure(tc.p, append(opts, WithFP16())...)
			if err != nil {
				t.Fatalf("%s z=%d fp16: %v", tc.name, z, err)
			}
			x, dy := poolLayer(t, 91, tc.p)
			xh, dyh := x.ToHalf(), dy.ToHalf()

			want := Execute(cfg, x, dy)
			wantH := ExecuteHalf(cfg16, xh, dyh)
			withTestPool(t, 4, func() {
				got := Execute(cfg, x, dy)
				equalBits(t, tc.name+"/fp32", got.Data, want.Data)
				gotH := ExecuteHalf(cfg16, xh, dyh)
				equalBits(t, tc.name+"/fp16", gotH.Data, wantH.Data)
			})
		}
	}
}

// Strided execution (phase decimation over the 2-D kernels) through the
// pool must match the inline path bitwise.
func TestPoolMatchesInlineStrided(t *testing.T) {
	cases := []conv.StridedParams{
		{N: 1, IH: 13, IW: 13, FH: 3, FW: 3, IC: 3, OC: 4, PH: 1, PW: 1, SH: 2, SW: 2},
		{N: 2, IH: 11, IW: 15, FH: 3, FW: 3, IC: 2, OC: 3, SH: 2, SW: 1},
	}
	for _, p := range cases {
		rng := rand.New(rand.NewSource(92))
		x := tensor.NewFloat32(p.XShape())
		dy := tensor.NewFloat32(p.DYShape())
		x.FillUniform(rng, 0, 1)
		dy.FillUniform(rng, 0, 1)
		want, err := BackwardFilterStrided(p, x, dy)
		if err != nil {
			t.Fatal(err)
		}
		withTestPool(t, 4, func() {
			got, err := BackwardFilterStrided(p, x, dy)
			if err != nil {
				t.Fatal(err)
			}
			equalBits(t, "strided", got.Data, want.Data)
		})
	}
}

// The 3-D path through the pool must match the inline path bitwise.
func TestPoolMatchesInline3D(t *testing.T) {
	cases := []conv.Params3D{
		{N: 1, ID: 6, IH: 8, IW: 8, FD: 3, FH: 3, FW: 3, IC: 2, OC: 2, PD: 1, PH: 1, PW: 1},
		{N: 2, ID: 4, IH: 6, IW: 10, FD: 2, FH: 2, FW: 2, IC: 2, OC: 3},
	}
	for _, p := range cases {
		rng := rand.New(rand.NewSource(93))
		x := tensor.NewFloat325(p.XShape())
		dy := tensor.NewFloat325(p.DYShape())
		for i := range x.Data {
			x.Data[i] = rng.Float32()
		}
		for i := range dy.Data {
			dy.Data[i] = rng.Float32()
		}
		want, err := BackwardFilter3D(p, x, dy)
		if err != nil {
			t.Fatal(err)
		}
		withTestPool(t, 4, func() {
			got, err := BackwardFilter3D(p, x, dy)
			if err != nil {
				t.Fatal(err)
			}
			equalBits(t, "3d", got.Data, want.Data)
		})
	}
}

// Steady-state ExecuteIn with the pool active must allocate nothing: the
// dispatch tasks live inside the Workspace, batch descriptors are pooled,
// and per-unit scratch comes from the tile-scratch pool.
func TestExecuteInAllocsZeroWithPool(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pinning runs without -race")
	}
	p := conv.Params{N: 1, IH: 24, IW: 24, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1}
	cfg, err := Configure(p, WithSegments(4))
	if err != nil {
		t.Fatal(err)
	}
	x, dy := poolLayer(t, 94, p)
	ws := NewWorkspace(cfg)
	dst := tensor.NewFloat32(p.DWShape())

	withTestPool(t, 4, func() {
		// Warm every per-worker cache (tile scratch, batch descriptors),
		// then freeze the GC so the pools cannot be drained mid-measurement.
		for i := 0; i < 8; i++ {
			ExecuteIn(cfg, ws, x, dy, dst)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs := testing.AllocsPerRun(50, func() { ExecuteIn(cfg, ws, x, dy, dst) })
		if allocs != 0 {
			t.Errorf("steady-state pooled ExecuteIn allocates %v per run, want 0", allocs)
		}
	})
}

// Concurrent Execute calls sharing one pool must not interfere: each gets
// its own workspace, results stay bit-identical to the serial reference.
// The grouped cases make the participants of each call contend for its
// slot arenas: depthwise FP16 with G above the pool width, and G = 3,
// which a width-4 pool splits unevenly. Run with -race, this is the
// co-scheduling safety test.
func TestConcurrentExecuteSharedPool(t *testing.T) {
	cases := []struct {
		name string
		p    conv.Params
		half bool
	}{
		{"dense", conv.Params{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 4, OC: 6, PH: 1, PW: 1}, false},
		{"depthwise_fp16", conv.Params{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1, Groups: 16}, true},
		{"g3", conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 6, OC: 9, PH: 1, PW: 1, Groups: 3}, false},
	}
	for _, tc := range cases {
		opts := []Option{WithSegments(2)}
		if tc.half {
			opts = append(opts, WithFP16())
		}
		cfg, err := Configure(tc.p, opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		x, dy := poolLayer(t, 95, tc.p)
		xh, dyh := x.ToHalf(), dy.ToHalf()
		run := func(ws *Workspace, dst *tensor.Float32) *tensor.Float32 {
			if tc.half {
				return ExecuteHalfIn(cfg, ws, xh, dyh, dst)
			}
			return ExecuteIn(cfg, ws, x, dy, dst)
		}
		want := run(nil, nil)

		withTestPool(t, 4, func() {
			var wg sync.WaitGroup
			errs := make(chan string, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ws := NewWorkspace(cfg)
					dst := tensor.NewFloat32(tc.p.DWShape())
					for iter := 0; iter < 10; iter++ {
						got := run(ws, dst)
						for i := range want.Data {
							if got.Data[i] != want.Data[i] {
								errs <- tc.name + ": concurrent pooled result differs from serial reference"
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}
