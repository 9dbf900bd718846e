package core

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/fp16"
	"winrs/internal/tensor"
)

// groupPlan returns the per-group plan of grouped plan cfg: one group's
// channel slice (I_C/G inputs, O_C/G outputs) configured with cfg's
// precision and segment target, which yields cfg's pair, Ẑ and segments.
func groupPlan(cfg *Config) *Config {
	opts := []Option{WithSegments(cfg.ZTarget)}
	if cfg.FP16 {
		opts = append(opts, WithFP16())
	}
	g, err := Configure(oneGroup(cfg.Params), opts...)
	if err != nil {
		panic(err)
	}
	return g
}

// perGroupRef is the sequential per-group reference: slice each group's
// channels and run the per-group plan as an ordinary ungrouped execution,
// one group after another (FP16 when half; binary16 rounding is
// element-wise, so slicing before it changes no bits).
func perGroupRef(cfg *Config, x, dy *tensor.Float32, half bool) *tensor.Float32 {
	p, gcfg := cfg.Params, groupPlan(cfg)
	pg := gcfg.Params
	xg, dyg := tensor.NewFloat32(pg.XShape()), tensor.NewFloat32(pg.DYShape())
	dst := tensor.NewFloat32(p.DWShape())
	for gi := 0; gi < p.G(); gi++ {
		sliceChannels(xg.Data, x.Data, p.N*p.IH*p.IW, p.IC, gi*p.ICG(), p.ICG())
		sliceChannels(dyg.Data, dy.Data, p.N*p.OH()*p.OW(), p.OC, gi*p.OCG(), p.OCG())
		var out *tensor.Float32
		if half {
			out = ExecuteHalf(gcfg, xg.ToHalf(), dyg.ToHalf())
		} else {
			out = Execute(gcfg, xg, dyg)
		}
		copy(groupSlab(dst, pg.DWShape(), gi).Data, out.Data)
	}
	return dst
}

// Grouped execution — the dense grid with a group axis, or the
// channel-wide depthwise grid — must be bit-identical to the sequential
// per-group reference on every grouped sweep shape, FP32 and FP16, across
// forced segmentations, inline and through a width-4 pool, and stay
// within the oracle band. Run under -race this is the grouped
// co-scheduling differential.
func TestGroupedInterleavedMatchesSequential(t *testing.T) {
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			for _, tc := range groupedSweepCases {
				x64, dy64 := groupedLayer64(t, 71, tc.p)
				want := conv.BackwardFilterDirect64(tc.p, x64, dy64)
				x, dy := x64.ToFloat32(), dy64.ToFloat32()
				xh, dyh := x.ToHalf(), dy.ToHalf()
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

					il := Execute(cfg, x, dy)
					equalBits(t, tc.name+"-fp32", il.Data, perGroupRef(cfg, x, dy, false).Data)
					if m := tensor.MARE(il, want); m > 1e-5 {
						t.Errorf("%s width=%d z=%d: interleaved MARE %v > 1e-5", tc.name, width, z, m)
					}
					ilH := ExecuteHalfIn(cfg16, nil, xh, dyh, nil)
					equalBits(t, tc.name+"-fp16", ilH.Data, perGroupRef(cfg16, x, dy, true).Data)
				}
			}
		})
	}
}

// Every EWM kernel-tier forcing must produce bit-identical gradients on
// depthwise shapes (I_C/G == 1), whose channel-wide units run the diagonal
// EWM whatever the forcing — the forced-kernel differential sweep of the
// depthwise path, inline and pooled.
func TestDepthwiseEWMKernelSweep(t *testing.T) {
	shapes := []conv.Params{
		{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1, Groups: 8},
		{N: 2, IH: 12, IW: 14, FH: 5, FW: 5, IC: 4, OC: 4, PH: 2, PW: 2, Groups: 4},
	}
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			for _, p := range shapes {
				x64, dy64 := groupedLayer64(t, 72, p)
				want := conv.BackwardFilterDirect64(p, x64, dy64)
				x, dy := x64.ToFloat32(), dy64.ToFloat32()
				cfg, err := Configure(p, WithSegments(2))
				if err != nil {
					t.Fatal(err)
				}
				if k := cfg.EWMKernel(); k != "diag" {
					t.Errorf("depthwise auto selection is %q, want the diagonal EWM", k)
				}
				var base *tensor.Float32
				for _, m := range ewmVariantModes {
					forceEWM(t, m.mode)
					got := Execute(cfg, x, dy)
					if mare := tensor.MARE(got, want); mare > 1e-5 {
						t.Errorf("%v width=%d %s: MARE %v > 1e-5", p, width, m.name, mare)
					}
					if base == nil {
						base = got
						continue
					}
					equalBits(t, m.name, got.Data, base.Data)
				}
				forceEWM(t, ewmAuto)
			}
		})
	}
}

// Steady-state grouped execution through a warm pool must not allocate:
// the execJob is embedded in the Workspace, the buckets, Ŵ cache and
// operand mirrors are grown once, and batch descriptors are pooled.
// Depthwise (channel-wide grid) and G = 2, I_C/G = 4 (dense grid) plans.
func TestGroupedInterleavedAllocsZeroWithPool(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pinning runs without -race")
	}
	for _, p := range []conv.Params{
		{N: 1, IH: 24, IW: 24, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1, Groups: 8},
		{N: 1, IH: 24, IW: 24, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1, Groups: 2},
	} {
		groupedAllocsZero(t, p)
	}
}

func groupedAllocsZero(t *testing.T, p conv.Params) {
	cfg, err := Configure(p, WithSegments(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg16, err := Configure(p, WithSegments(2), WithFP16())
	if err != nil {
		t.Fatal(err)
	}
	x, dy := poolLayer(t, 74, p)
	xh, dyh := x.ToHalf(), dy.ToHalf()
	ws := NewWorkspace(cfg)
	ws16 := NewWorkspace(cfg16)
	dst := tensor.NewFloat32(p.DWShape())

	withTestPool(t, 4, func() {
		for i := 0; i < 8; i++ {
			ExecuteIn(cfg, ws, x, dy, dst)
			ExecuteHalfIn(cfg16, ws16, xh, dyh, dst)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs := testing.AllocsPerRun(50, func() { ExecuteIn(cfg, ws, x, dy, dst) })
		if allocs != 0 {
			t.Errorf("G=%d: steady-state ExecuteIn allocates %v per run, want 0", p.G(), allocs)
		}
		allocs16 := testing.AllocsPerRun(50, func() { ExecuteHalfIn(cfg16, ws16, xh, dyh, dst) })
		if allocs16 != 0 {
			t.Errorf("G=%d: steady-state ExecuteHalfIn allocates %v per run, want 0", p.G(), allocs16)
		}
	})
}

// sliceChannels/scatterChannels on both branches: the strided per-row
// gather and the width == srcC single-bulk-copy fast path, which must be
// exact inverses.
func TestSliceScatterChannelsBothBranches(t *testing.T) {
	const rows, srcC = 5, 6
	rng := rand.New(rand.NewSource(75))
	src := make([]float32, rows*srcC)
	for i := range src {
		src[i] = rng.Float32()
	}
	// Strided branch: every (off, width) window with width < srcC.
	for off := 0; off < srcC; off++ {
		for width := 1; off+width < srcC; width++ {
			got := make([]float32, rows*width)
			sliceChannels(got, src, rows, srcC, off, width)
			for r := 0; r < rows; r++ {
				for c := 0; c < width; c++ {
					if got[r*width+c] != src[r*srcC+off+c] {
						t.Fatalf("slice off=%d width=%d row=%d ch=%d: %v != %v",
							off, width, r, c, got[r*width+c], src[r*srcC+off+c])
					}
				}
			}
			back := make([]float32, rows*srcC)
			copy(back, src)
			scatterChannels(back, got, rows, srcC, off, width)
			for i := range back {
				if back[i] != src[i] {
					t.Fatalf("scatter off=%d width=%d is not the inverse at %d", off, width, i)
				}
			}
		}
	}
	// Fast path: width == srcC collapses to one bulk copy.
	full := make([]float32, rows*srcC)
	sliceChannels(full, src, rows, srcC, 0, srcC)
	for i := range full {
		if full[i] != src[i] {
			t.Fatalf("full-width slice differs at %d", i)
		}
	}
	out := make([]float32, rows*srcC)
	scatterChannels(out, full, rows, srcC, 0, srcC)
	for i := range out {
		if out[i] != src[i] {
			t.Fatalf("full-width scatter differs at %d", i)
		}
	}
}

// sliceDecodeChannels must equal gather-then-decode bit for bit on both
// branches (decode is exact, so fusing it with the gather changes nothing).
func TestSliceDecodeChannelsMatchesUnfused(t *testing.T) {
	const rows, srcC = 4, 5
	rng := rand.New(rand.NewSource(76))
	f := make([]float32, rows*srcC)
	for i := range f {
		f[i] = rng.Float32()
	}
	src := make([]fp16.Bits, len(f))
	fp16.EncodeSlice(src, f)
	for _, tc := range []struct{ off, width int }{{1, 2}, {0, 3}, {0, srcC}} {
		fused := make([]float32, rows*tc.width)
		sliceDecodeChannels(fused, src, rows, srcC, tc.off, tc.width)
		gathered := make([]fp16.Bits, rows*tc.width)
		sliceChannels(gathered, src, rows, srcC, tc.off, tc.width)
		unfused := make([]float32, rows*tc.width)
		fp16.DecodeSlice(unfused, gathered)
		for i := range fused {
			if fused[i] != unfused[i] {
				t.Fatalf("off=%d width=%d: fused decode differs at %d: %v != %v",
					tc.off, tc.width, i, fused[i], unfused[i])
			}
		}
	}
}

// BenchmarkGroupedDispatch times the grouped dispatch on a production
// depthwise shape. Run with -cpu 1,4 to see the pool-width dependence.
func BenchmarkGroupedDispatch(b *testing.B) {
	p := conv.Params{N: 1, IH: 56, IW: 56, FH: 3, FW: 3, IC: 64, OC: 64, PH: 1, PW: 1, Groups: 64}
	cfg, err := Configure(p)
	if err != nil {
		b.Fatal(err)
	}
	x, dy := poolLayer(b, 81, p)
	ws := NewWorkspace(cfg)
	dst := tensor.NewFloat32(p.DWShape())
	cfg16, err := Configure(p, WithFP16())
	if err != nil {
		b.Fatal(err)
	}
	ws16 := NewWorkspace(cfg16)
	xh, dyh := x.ToHalf(), dy.ToHalf()
	b.Run("fp32", func(b *testing.B) {
		ExecuteIn(cfg, ws, x, dy, dst)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ExecuteIn(cfg, ws, x, dy, dst)
		}
	})
	b.Run("fp16", func(b *testing.B) {
		ExecuteHalfIn(cfg16, ws16, xh, dyh, dst)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ExecuteHalfIn(cfg16, ws16, xh, dyh, dst)
		}
	})
}
