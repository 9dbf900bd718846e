package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/tensor"
)

// groupedSweepCases is the grouped differential grid: split and depthwise
// variants of the standard sweep shapes, including strides-unfriendly
// channel counts, padding, batching and a 5×5 filter, and two groups wide
// enough for the AVX2 chunk kernel (I_C/G = 12: 8 lanes plus a Go tail;
// I_C/G = 16) on strided group gathers.
var groupedSweepCases = []struct {
	name string
	p    conv.Params
	segs []int
}{
	{"3x3_G2", conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 6, OC: 8, PH: 1, PW: 1, Groups: 2}, []int{0, 1, 3}},
	{"3x3_G4_batched", conv.Params{N: 2, IH: 10, IW: 10, FH: 3, FW: 3, IC: 8, OC: 4, PH: 1, PW: 1, Groups: 4}, []int{0, 2}},
	{"5x5_G2", conv.Params{N: 1, IH: 14, IW: 16, FH: 5, FW: 5, IC: 4, OC: 6, PH: 2, PW: 2, Groups: 2}, []int{0, 2}},
	{"3x3_depthwise", conv.Params{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1, Groups: 4}, []int{0, 2}},
	{"3x3_depthwise_mult", conv.Params{N: 2, IH: 9, IW: 13, FH: 3, FW: 3, IC: 3, OC: 6, Groups: 3}, []int{0}},
	{"2x2_G2_nopad", conv.Params{N: 1, IH: 11, IW: 15, FH: 2, FW: 2, IC: 4, OC: 4, Groups: 2}, []int{0, 1}},
	{"3x3_G2_icg12", conv.Params{N: 1, IH: 10, IW: 12, FH: 3, FW: 3, IC: 24, OC: 16, PH: 1, PW: 1, Groups: 2}, []int{0, 3}},
	{"5x5_G3_icg16", conv.Params{N: 1, IH: 8, IW: 8, FH: 5, FW: 5, IC: 48, OC: 12, PH: 2, PW: 2, Groups: 3}, []int{0, 2}},
}

func groupedLayer64(t testing.TB, seed int64, p conv.Params) (*tensor.Float64, *tensor.Float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x64 := tensor.NewFloat64(p.XShape())
	dy64 := tensor.NewFloat64(p.DYShape())
	for i := range x64.Data {
		x64.Data[i] = rng.Float64()
	}
	for i := range dy64.Data {
		dy64.Data[i] = rng.Float64()
	}
	return x64, dy64
}

// Grouped FP32 BFC must match the grouped float64 direct oracle on every
// sweep shape, across forced segment counts, inline and through a width-4
// pool (run under -race, this is the grouped co-scheduling differential),
// and report the paper's (Z−1)·|∇W| workspace at either width.
func TestGroupedMatchesDirect(t *testing.T) {
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			for _, tc := range groupedSweepCases {
				if err := tc.p.Validate(); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				x64, dy64 := groupedLayer64(t, 61, tc.p)
				want := conv.BackwardFilterDirect64(tc.p, x64, dy64)
				x, dy := x64.ToFloat32(), dy64.ToFloat32()
				for _, z := range tc.segs {
					opts := []Option{}
					if z > 0 {
						opts = append(opts, WithSegments(z))
					}
					cfg, err := Configure(tc.p, opts...)
					if err != nil {
						t.Fatalf("%s z=%d: %v", tc.name, z, err)
					}
					if g := groupPlan(cfg); g.Pair != cfg.Pair {
						t.Fatalf("%s: grouped plan pair %v, per-group plan %v", tc.name, cfg.Pair, g.Pair)
					}
					if want := int64(cfg.Z()-1) * int64(tc.p.DWShape().Elems()) * 4; cfg.WorkspaceBytes() != want {
						t.Errorf("%s width=%d z=%d: WorkspaceBytes %d, want (Z−1)·|∇W|·4 = %d",
							tc.name, width, z, cfg.WorkspaceBytes(), want)
					}
					got := Execute(cfg, x, dy)
					if m := tensor.MARE(got, want); m > 1e-5 {
						t.Errorf("%s width=%d z=%d: MARE %v > 1e-5", tc.name, width, z, m)
					}
				}
			}
		})
	}
}

// A grouped plan is the plan of one group's channel slice: Configure on
// the slice with the same options yields the grouped plan's Ẑ and
// segments, FP32 and FP16, so Algorithm 1 reads the channel counts of one
// group.
func TestGroupedPlanIsOneGroupsPlan(t *testing.T) {
	check := func(name string, p conv.Params, z int) {
		for _, half := range []bool{false, true} {
			opts := []Option{}
			if z > 0 {
				opts = append(opts, WithSegments(z))
			}
			if half {
				opts = append(opts, WithFP16())
			}
			cfg, err := Configure(p, opts...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			g, err := Configure(oneGroup(p), opts...)
			if err != nil {
				t.Fatalf("%s one group: %v", name, err)
			}
			if cfg.ZTarget != g.ZTarget || !reflect.DeepEqual(cfg.Segments, g.Segments) {
				t.Errorf("%s z=%d fp16=%v: plan Ẑ %d, segments %v; one group's Ẑ %d, segments %v",
					name, z, half, cfg.ZTarget, cfg.Segments, g.ZTarget, g.Segments)
			}
		}
	}
	for _, tc := range groupedSweepCases {
		for _, z := range tc.segs {
			check(tc.name, tc.p, z)
		}
	}
	// Algorithm 1 gives every sweep layer Ẑ = 1 whatever its channel
	// counts; this one gets 4 for one group and 8 for the whole layer.
	check("56x56_G2_wide", conv.Params{N: 4, IH: 56, IW: 56, FH: 3, FW: 3, IC: 256, OC: 256, PH: 1, PW: 1, Groups: 2}, 0)
}

// Grouped FP16 BFC against the grouped oracle on the quantized inputs,
// within the paper's eq.(7) FP16 band, at pool widths 1 and 4.
func TestGroupedHalfMatchesDirect(t *testing.T) {
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			for _, tc := range groupedSweepCases {
				rng := rand.New(rand.NewSource(62))
				x64 := tensor.NewFloat64(tc.p.XShape())
				dy64 := tensor.NewFloat64(tc.p.DYShape())
				for i := range x64.Data {
					x64.Data[i] = rng.Float64()
				}
				for i := range dy64.Data {
					dy64.Data[i] = rng.Float64() * 0.01 // the paper's FP16 ∇Y scaling
				}
				xh := x64.ToFloat32().ToHalf()
				dyh := dy64.ToFloat32().ToHalf()
				want := conv.BackwardFilterDirect64(tc.p, xh.ToFloat32().ToFloat64(),
					dyh.ToFloat32().ToFloat64())
				got, err := BackwardFilterHalf(tc.p, xh, dyh)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if m := tensor.MARE(got, want); m > 5e-3 {
					t.Errorf("%s width=%d: FP16 MARE %v > 5e-3", tc.name, width, m)
				}
			}
		})
	}
}

// Grouped strided BFC — every phase runs the grouped stride-1 pipeline —
// against the grouped strided float64 oracle, FP32 and FP16.
func TestGroupedStridedMatchesDirect(t *testing.T) {
	cases := []conv.StridedParams{
		{N: 1, IH: 13, IW: 13, FH: 3, FW: 3, IC: 4, OC: 6, PH: 1, PW: 1, SH: 2, SW: 2, Groups: 2},
		{N: 2, IH: 11, IW: 15, FH: 3, FW: 3, IC: 4, OC: 4, SH: 2, SW: 1, Groups: 4}, // depthwise, sw==1 fast path
		{N: 1, IH: 16, IW: 12, FH: 5, FW: 5, IC: 6, OC: 3, PH: 2, PW: 2, SH: 1, SW: 2, Groups: 3},
	}
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			for _, p := range cases {
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(63))
				x64 := tensor.NewFloat64(p.XShape())
				dy64 := tensor.NewFloat64(p.DYShape())
				for i := range x64.Data {
					x64.Data[i] = rng.Float64()
				}
				for i := range dy64.Data {
					dy64.Data[i] = rng.Float64()
				}
				want := conv.BackwardFilterStridedDirect64(p, x64, dy64)
				got, err := BackwardFilterStrided(p, x64.ToFloat32(), dy64.ToFloat32())
				if err != nil {
					t.Fatalf("%v: %v", p, err)
				}
				if m := tensor.MARE(got, want); m > 1e-5 {
					t.Errorf("%v width=%d: strided MARE %v > 1e-5", p, width, m)
				}

				xh := x64.ToFloat32().ToHalf()
				dyh := dy64.ToFloat32().ToHalf()
				wantH := conv.BackwardFilterStridedDirect64(p, xh.ToFloat32().ToFloat64(),
					dyh.ToFloat32().ToFloat64())
				gotH, err := BackwardFilterStridedHalf(p, xh, dyh)
				if err != nil {
					t.Fatalf("%v fp16: %v", p, err)
				}
				if m := tensor.MARE(gotH, wantH); m > 5e-3 {
					t.Errorf("%v width=%d: strided FP16 MARE %v > 5e-3", p, width, m)
				}
			}
		})
	}
}

// Depthwise (G == I_C) must run the planned WinRS path — a real fast
// kernel, not the direct fallback — and its workspace must shrink versus
// the ungrouped plan of the same outer geometry at equal Z. This is the
// paper's headline quantity under grouping.
func TestDepthwisePlannedPathWorkspaceShrinks(t *testing.T) {
	p := conv.Params{N: 2, IH: 24, IW: 24, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1, Groups: 16}
	// Force Z > 1 on both plans: the workspace is (Z-1)·sizeof(∇W) slabs,
	// so at Z = 1 both report zero and the comparison is vacuous.
	cfg, err := Configure(p, WithSegments(4))
	if err != nil {
		t.Fatal(err)
	}
	if g := groupPlan(cfg); g.Pair.Fast.N <= 1 {
		t.Errorf("depthwise runs fallback kernel %v, want a planned fast kernel (n > 1)", g.Pair.Fast)
	}
	pu := p
	pu.Groups = 0
	ucfg, err := Configure(pu, WithSegments(cfg.Z()))
	if err != nil {
		t.Fatal(err)
	}
	gw, uw := cfg.WorkspaceBytes(), ucfg.WorkspaceBytes()
	if gw <= 0 || uw <= 0 {
		t.Fatalf("degenerate workspaces: grouped %d, ungrouped %d", gw, uw)
	}
	if gw >= uw {
		t.Errorf("grouped workspace %d B >= ungrouped %d B; want per-group shrinkage", gw, uw)
	}
	// The channel-wide units run on Z buckets of the whole depthwise ∇W,
	// O_C·F_H·F_W·(I_C/G), the paper's (Z−1)·|∇W|: G× below the ungrouped
	// layer at equal Z (both sides round Z the same way under
	// WithSegments), with no Ŵ cache.
	if want := int64(cfg.Z()-1) * int64(p.DWShape().Elems()) * 4; gw != want {
		t.Errorf("WorkspaceBytes %d, want (Z−1)·|∇W| = %d", gw, want)
	}
	if cfg.Z() == ucfg.Z() && uw != gw*int64(p.G()) {
		t.Errorf("workspace shrink %d/%d, want exactly G=%d at equal Z", uw, gw, p.G())
	}
	if wh := cfg.WHatCacheBytes(); wh != 0 {
		t.Errorf("WHatCacheBytes %d, want 0 (channel-wide units keep no Ŵ cache)", wh)
	}
	if d := cfg.Describe(); d.Layer.Groups != p.G() {
		t.Errorf("Describe reports groups %d, want %d", d.Layer.Groups, p.G())
	}
}

// Grouped forward and data-gradient siblings against the conv references.
func TestGroupedForwardBackwardData(t *testing.T) {
	p := conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 6, OC: 4, PH: 1, PW: 1, Groups: 2}
	x64, _ := groupedLayer64(t, 64, p)
	rng := rand.New(rand.NewSource(65))
	w64 := tensor.NewFloat64(p.DWShape())
	for i := range w64.Data {
		w64.Data[i] = rng.Float64()*2 - 1
	}
	want := conv.Forward64(p, x64, w64)
	got, err := Forward(p, x64.ToFloat32(), w64.ToFloat32())
	if err != nil {
		t.Fatal(err)
	}
	if m := tensor.MARE(got, want); m > 1e-4 {
		t.Errorf("grouped forward MARE %v > 1e-4", m)
	}

	dy64 := tensor.NewFloat64(p.DYShape())
	for i := range dy64.Data {
		dy64.Data[i] = rng.Float64()*2 - 1
	}
	dy, w := dy64.ToFloat32(), w64.ToFloat32()
	wantDX := conv.BackwardData32(p, dy, w)
	gotDX, err := BackwardData(p, dy, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantDX.Data {
		d := gotDX.Data[i] - wantDX.Data[i]
		if d < -1e-3 || d > 1e-3 {
			t.Fatalf("grouped backward-data diverges at %d: %v vs %v",
				i, gotDX.Data[i], wantDX.Data[i])
		}
	}
}

// The cancellable grouped path: uncancelled runs are bit-identical to the
// plain path; a pre-cancelled context aborts before any group executes.
func TestGroupedCtxCancellable(t *testing.T) {
	p := conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 6, OC: 6, PH: 1, PW: 1, Groups: 3}
	cfg, err := Configure(p, WithSegments(2))
	if err != nil {
		t.Fatal(err)
	}
	x, dy := poolLayer(t, 66, p)
	want := ExecuteIn(cfg, nil, x, dy, nil)
	got, err := ExecuteInCtx(context.Background(), cfg, nil, x, dy, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalBits(t, "grouped-ctx", got.Data, want.Data)

	cfg16, err := Configure(p, WithSegments(2), WithFP16())
	if err != nil {
		t.Fatal(err)
	}
	xh, dyh := x.ToHalf(), dy.ToHalf()
	wantH := ExecuteHalfIn(cfg16, nil, xh, dyh, nil)
	gotH, err := ExecuteHalfInCtx(context.Background(), cfg16, nil, xh, dyh, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalBits(t, "grouped-ctx-fp16", gotH.Data, wantH.Data)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := ExecuteInCtx(ctx, cfg, nil, x, dy, nil); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("pre-cancelled grouped: out=%v err=%v", out, err)
	}
	if out, err := ExecuteHalfInCtx(ctx, cfg16, nil, xh, dyh, nil); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("pre-cancelled grouped fp16: out=%v err=%v", out, err)
	}
}

// A shared workspace must be reusable across grouped runs (every pass
// stores each bucket element afresh), and grouped execution must stay
// deterministic.
func TestGroupedWorkspaceReuseDeterministic(t *testing.T) {
	p := conv.Params{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1, Groups: 2}
	cfg, err := Configure(p, WithSegments(3))
	if err != nil {
		t.Fatal(err)
	}
	x, dy := poolLayer(t, 67, p)
	ws := NewWorkspace(cfg)
	a := ExecuteIn(cfg, ws, x, dy, nil)
	for run := 0; run < 3; run++ {
		b := ExecuteIn(cfg, ws, x, dy, nil)
		equalBits(t, "grouped-reuse", b.Data, a.Data)
	}
}
