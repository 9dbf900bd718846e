package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/kahan"
	"winrs/internal/obs"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

// forceMerge sets the test-only merge force for the duration of the test:
// positive merges every plan residMergeable admits, negative none.
func forceMerge(t testing.TB, force int) {
	t.Helper()
	prev := residMergeForce
	residMergeForce = force
	t.Cleanup(func() { residMergeForce = prev })
}

// separate configures p with the merge off: the plan whose residual
// segment runs its own units into its own bucket, reduced by phase 3.
func separate(t testing.TB, p conv.Params, opts ...Option) *Config {
	t.Helper()
	prev := residMergeForce
	residMergeForce = -1
	defer func() { residMergeForce = prev }()
	cfg, err := Configure(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// nanDW returns a ∇W tensor for p with every element NaN, so a result
// that misses an element cannot match.
func nanDW(p conv.Params) *tensor.Float32 {
	dst := tensor.NewFloat32(p.DWShape())
	for i := range dst.Data {
		dst.Data[i] = float32(math.NaN())
	}
	return dst
}

// The merge rule reads only the plan. The VGG16 layers whose O_C blocks
// split the fast segment (conv3_2 to conv5_3) run their residual units
// inside their fast units at every pool width: they schedule only the
// fast units, own no bucket and still report Z = 2. The others keep their
// residual segment and its bucket. Over a population of dense shapes a
// plan merges exactly when the merge can take it and its block is below
// O_C, so no plan with ob = O_C merges without a workspace limit; and no
// serving key merges.
func TestMergeRule(t *testing.T) {
	var merged [2][]bool
	for i, width := range []int{1, 8} {
		withTestPool(t, width, func() {
			for _, l := range vgg16Blocks {
				p := vgg16Params(l.hw, l.ic, l.oc)
				cfg, err := Configure(p)
				if err != nil {
					t.Fatal(err)
				}
				want := l.ob < l.oc
				fast := p.FH * ceilDiv(p.OC, l.ob) * (p.FW / cfg.Pair.Fast.N)
				buckets := 2
				if want {
					buckets = 1
				}
				switch {
				case cfg.residMerged != want:
					t.Errorf("width %d %s: merged %v, want %v", width, l.name, cfg.residMerged, want)
				case cfg.Z() != 2 || cfg.Buckets() != buckets:
					t.Errorf("width %d %s: Z = %d, %d buckets; want 2 and %d", width, l.name, cfg.Z(), cfg.Buckets(), buckets)
				case want && (cfg.Units() != fast || cfg.WorkspaceBytes() != 0):
					t.Errorf("width %d %s: %d units, %d workspace bytes; want %d fast units and none",
						width, l.name, cfg.Units(), cfg.WorkspaceBytes(), fast)
				}
				if d := cfg.Describe(); d.Segments != cfg.Z() || d.Buckets != cfg.Buckets() || d.ResidualMerged != cfg.residMerged {
					t.Errorf("%s: Describe reports %d segments, %d buckets, merged %v", l.name, d.Segments, d.Buckets, d.ResidualMerged)
				}
				merged[i] = append(merged[i], cfg.residMerged)
			}
		})
	}
	if fmt.Sprint(merged[0]) != fmt.Sprint(merged[1]) {
		t.Errorf("the merge depends on the pool width: %v at width 1, %v at width 8", merged[0], merged[1])
	}

	merges := 0
	for _, f := range []int{2, 3, 5, 7} {
		for h := f; h <= 40; h++ {
			for _, c := range []int{8, 64, 256} {
				for _, half := range []bool{false, true} {
					p := conv.Params{N: 1, IH: h, IW: h, FH: f, FW: f, IC: c, OC: c, PH: (f - 1) / 2, PW: (f - 1) / 2}
					var opts []Option
					if half {
						opts = append(opts, WithFP16())
					}
					cfg, err := Configure(p, opts...)
					if err != nil {
						t.Fatalf("%v: %v", p, err)
					}
					want := residMergeable(p, cfg.Pair, cfg.Segments) && cfg.unitBlock() < p.OC
					if cfg.residMerged != want {
						t.Errorf("%v fp16=%v: merged %v with block %d of %d, want %v", p, half, cfg.residMerged, cfg.unitBlock(), p.OC, want)
					}
					if cfg.residMerged {
						merges++
					}
				}
			}
		}
	}
	if merges == 0 {
		t.Error("no shape of the population merged")
	}

	for _, k := range []struct {
		name string
		p    conv.Params
		half bool
	}{
		{"f32_28x28x32_3x3", conv.Params{N: 1, IH: 28, IW: 28, FH: 3, FW: 3, IC: 32, OC: 32, PH: 1, PW: 1}, false},
		{"f16_14x14x64_3x3", conv.Params{N: 1, IH: 14, IW: 14, FH: 3, FW: 3, IC: 64, OC: 64, PH: 1, PW: 1}, true},
		{"f32_n2_16x16x8_5x5", conv.Params{N: 2, IH: 16, IW: 16, FH: 5, FW: 5, IC: 8, OC: 8, PH: 2, PW: 2}, false},
	} {
		var opts []Option
		if k.half {
			opts = append(opts, WithFP16())
		}
		cfg, err := Configure(k.p, opts...)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if cfg.residMerged {
			t.Errorf("serving key %s merged", k.name)
		}
	}
}

// Each merged VGG16 shape must equal the same plan with the merge off,
// bit for bit, in FP32 and FP16, inline and through a width-4 pool, on a
// destination seeded with NaN: the fast units store every element, and
// the fold runs phase 3's two Kahan steps on it.
func TestMergedResidualMatchesSeparate(t *testing.T) {
	seen := map[conv.Params]bool{}
	for _, l := range vgg16Blocks {
		p := vgg16Params(l.hw, l.ic, l.oc)
		if l.ob == l.oc || seen[p] {
			continue
		}
		seen[p] = true
		x, dy := poolLayer(t, 97, p)
		xh, dyh := x.ToHalf(), dy.ToHalf()
		cfg, err := Configure(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg16, err := Configure(p, WithFP16())
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.residMerged || !cfg16.residMerged {
			t.Fatalf("setup: %s plans merged %v (fp32), %v (fp16)", l.name, cfg.residMerged, cfg16.residMerged)
		}
		want := Execute(separate(t, p), x, dy)
		want16 := ExecuteHalf(separate(t, p, WithFP16()), xh, dyh)
		for _, width := range []int{1, 4} {
			withTestPool(t, width, func() {
				name := fmt.Sprintf("%s width %d", l.name, width)
				sameBits(t, name+"/fp32", ExecuteIn(cfg, nil, x, dy, nanDW(p)).Data, want.Data)
				sameBits(t, name+"/fp16", ExecuteHalfIn(cfg16, nil, xh, dyh, nanDW(p)).Data, want16.Data)
			})
		}
	}
}

// A residual sub-unit's epilogue folds its rows into the stored ones by
// phase 3's Kahan steps, not by an add: on stored rows holding ±Inf among
// finite values, where the compensation step turns an Inf into NaN, it
// must equal storing the rows in a bucket of their own and reducing the
// two buckets, bit for bit, for both residual kernels of the VGG16 plans.
func TestWriteOutputFoldMatchesReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	p := conv.Params{N: 1, IH: 7, IW: 7, FH: 3, FW: 3, IC: 11, OC: 5, PH: 1, PW: 1}
	elems := p.DWShape().Elems()
	for _, k := range []winograd.Kernel{mustKernel(t, 3, 2), winograd.DirectKernel(1)} {
		n, alpha, oc, ic := k.N, k.Alpha, p.OC, p.IC
		aMat := fp32Storage.plan(k).a
		v := make([]float32, alpha*oc*ic)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		stored := make([]float32, elems)
		for i := range stored {
			switch rng.Intn(5) {
			case 0:
				stored[i] = float32(math.Inf(1))
			case 1:
				stored[i] = float32(math.Inf(-1))
			default:
				stored[i] = float32(rng.NormFloat64())
			}
		}
		got, own := append([]float32(nil), stored...), make([]float32, elems)
		acc := make([]float32, alpha*n+n*ic)
		for fh := 0; fh < p.FH; fh++ {
			for j := 0; j < p.FW/n; j++ {
				writeOutput(p, aMat, v, got, fh, j*n, n, alpha, oc, ic, acc, acc[alpha*n:])
				writeOutput(p, aMat, v, own, fh, j*n, n, alpha, oc, ic, acc, nil)
			}
		}
		want := make([]float32, elems)
		kahan.ReduceBuckets(want, [][]float32{stored, own})
		sameBits(t, k.String(), got, want)
	}
}

// The bitwise suites again with the merge forced on every plan it can
// take: their reference executors run the segments separately and reduce,
// so every merged plan among their shapes must still match bit for bit.
// On an AVX2 or F16C host the suites run once more on the Go kernel loops
// (the _go leg).
func TestBitwiseSuitesMergedResidual(t *testing.T) {
	for _, leg := range kernelLegs() {
		t.Run("merged"+leg, func(t *testing.T) {
			if leg != "" {
				forceGoKernels(t)
			}
			forceMerge(t, 1)
			// The force reaches the plans: this shape's block is O_C, so the
			// rule alone would not merge it.
			p := conv.Params{N: 1, IH: 13, IW: 17, FH: 3, FW: 3, IC: 5, OC: 7, PH: 1, PW: 1}
			cfg, err := Configure(p)
			if err != nil {
				t.Fatal(err)
			}
			if !cfg.residMerged || cfg.unitBlock() != p.OC {
				t.Fatalf("forced merge: merged %v, block %d", cfg.residMerged, cfg.unitBlock())
			}
			for _, s := range bitwiseSuites {
				t.Run(s.name, s.run)
			}
		})
	}
}

// Cancelling a merged plan mid-run must leave its workspace and a reused
// destination fit for the next run, which must match the uncancelled
// result bit for bit: a fast unit stores its rows before its residual
// sub-units fold into them, so a run never reads what a cancelled one
// left.
func TestExecuteInCtxCancelMidRunMerged(t *testing.T) {
	p := vgg16Params(7, 256, 512) // conv4_1: 12 merged units
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.residMerged {
		t.Fatal("setup: conv4_1's plan does not merge")
	}
	x, dy := poolLayer(t, 94, p)
	cancelMidRun(t, cfg, x, dy, tensor.NewFloat32(p.DWShape()))
}

// A traced merged plan records one segment_tile and one epilogue per fast
// unit, whose sub-units' transform, EWM and fold add to the unit's own
// stages, and no reduce, since it runs no phase 3; inline and through a
// width-4 pool, with results bit-equal to the untraced run.
func TestMergedExecuteRecordsStages(t *testing.T) {
	forceMerge(t, 1)
	p := conv.Params{N: 1, IH: 13, IW: 17, FH: 3, FW: 3, IC: 5, OC: 7, PH: 1, PW: 1}
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.residMerged {
		t.Fatal("setup: the plan does not merge")
	}
	x, dy := poolLayer(t, 95, p)
	want := Execute(cfg, x, dy)
	obs.EnableTrace(true)
	defer obs.EnableTrace(false)
	defer obs.ResetTrace()
	units := uint64(cfg.Units())
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			obs.ResetTrace()
			sameBits(t, fmt.Sprintf("width %d traced", width), Execute(cfg, x, dy).Data, want.Data)
			snap := obs.TraceSnapshot()
			for _, c := range []struct {
				stage obs.Stage
				want  uint64
			}{
				{obs.StageWHat, 1},
				{obs.StageReduce, 0},
				{obs.StageSegmentTile, units},
				{obs.StageEpilogue, units},
			} {
				if got := snap[c.stage].Count; got != c.want {
					t.Errorf("width %d: %s count = %d, want %d", width, c.stage, got, c.want)
				}
			}
			nested := snap[obs.StageTransform].Total + snap[obs.StageEWM].Total + snap[obs.StageEpilogue].Total
			if tile := snap[obs.StageSegmentTile].Total; nested > tile {
				t.Errorf("width %d: transform+ewm+epilogue %v exceeds segment_tile total %v", width, nested, tile)
			}
		})
	}
}

// A merged plan's arena is its Ŵ cache alone, and a steady-state
// ExecuteIn on it allocates nothing: the fold's rows live in the unit
// scratch. Inline (GOMAXPROCS 1), as in TestExecuteInAllocsSteadyState.
func TestMergedWorkspaceHoldsNoBucket(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	p := vgg16Params(7, 256, 256)
	x, dy := poolLayer(t, 96, p)
	withTestPool(t, 1, func() {
		cfg, err := Configure(p)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.residMerged {
			t.Fatal("setup: the plan does not merge")
		}
		ws, dst := NewWorkspace(cfg), tensor.NewFloat32(p.DWShape())
		ExecuteIn(cfg, ws, x, dy, dst) // warm the scratch list
		if ws.Bytes() != cfg.WHatCacheBytes() {
			t.Errorf("arena %d bytes, want the %d-byte Ŵ cache alone", ws.Bytes(), cfg.WHatCacheBytes())
		}
		if allocs := testing.AllocsPerRun(10, func() { ExecuteIn(cfg, ws, x, dy, dst) }); allocs != 0 {
			t.Errorf("steady-state merged ExecuteIn allocates %v objects per run, want 0", allocs)
		}
	})
}
