package core

import (
	"math"
	"math/rand"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/tensor"
)

func randLayer64(rng *rand.Rand, p conv.Params) (*tensor.Float64, *tensor.Float64, *tensor.Float64) {
	x := tensor.NewFloat64(p.XShape())
	dy := tensor.NewFloat64(p.DYShape())
	for i := range x.Data {
		x.Data[i] = rng.Float64()*2 - 1
	}
	for i := range dy.Data {
		dy.Data[i] = rng.Float64()*2 - 1
	}
	return x, dy, conv.BackwardFilterDirect64(p, x, dy)
}

// The end-to-end FP32 pipeline must match direct float64 BFC across filter
// sizes, paddings, odd output widths and forced segment counts.
func TestExecuteMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []conv.Params{
		{N: 2, IH: 16, IW: 16, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1},
		{N: 1, IH: 20, IW: 20, FH: 5, FW: 5, IC: 3, OC: 5, PH: 2, PW: 2},
		{N: 2, IH: 12, IW: 14, FH: 2, FW: 2, IC: 2, OC: 3},
		{N: 1, IH: 18, IW: 18, FH: 4, FW: 4, IC: 2, OC: 2, PH: 2, PW: 2},
		{N: 1, IH: 15, IW: 19, FH: 7, FW: 7, IC: 2, OC: 2, PH: 3, PW: 3},
		{N: 2, IH: 13, IW: 13, FH: 3, FW: 3, IC: 3, OC: 3, PH: 1, PW: 1}, // odd O_W
		{N: 1, IH: 17, IW: 21, FH: 6, FW: 6, IC: 2, OC: 2, PH: 3, PW: 3},
		{N: 1, IH: 24, IW: 24, FH: 9, FW: 9, IC: 2, OC: 2, PH: 4, PW: 4},
		{N: 1, IH: 21, IW: 23, FH: 8, FW: 8, IC: 1, OC: 2, PH: 4, PW: 4},
		{N: 1, IH: 12, IW: 30, FH: 3, FW: 6, IC: 2, OC: 2, PH: 1, PW: 2}, // non-square filter
		// f_h = 0 and f_h = 2 clip every row of their units, at an I_C the
		// AVX2 chunk kernel takes: those ∇W rows must be exactly +0.
		{N: 1, IH: 1, IW: 8, FH: 3, FW: 3, IC: 16, OC: 8, PH: 1, PW: 1},
	}
	for _, p := range cases {
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		// Positive inputs (the paper's Table 4 setup): with signed inputs,
		// exact gradients land near zero and relative error loses meaning.
		x64 := tensor.NewFloat64(p.XShape())
		dy64 := tensor.NewFloat64(p.DYShape())
		for i := range x64.Data {
			x64.Data[i] = rng.Float64()
		}
		for i := range dy64.Data {
			dy64.Data[i] = rng.Float64()
		}
		want := conv.BackwardFilterDirect64(p, x64, dy64)
		x, dy := x64.ToFloat32(), dy64.ToFloat32()
		for _, forceZ := range []int{0, 1, 3, 8} {
			opts := []Option{}
			if forceZ > 0 {
				opts = append(opts, WithSegments(forceZ))
			}
			cfg, err := Configure(p, opts...)
			if err != nil {
				t.Fatalf("%v forceZ=%d: %v", p, forceZ, err)
			}
			got := Execute(cfg, x, dy)
			// α = 16 kernels carry the paper's looser FP32 band (~1e-5).
			tol := 1e-5
			if cfg.Pair.Fast.Alpha >= 16 || cfg.Pair.Resid.Alpha >= 16 {
				tol = 2e-4
			}
			if m := tensor.MARE(got, want); m > tol {
				t.Errorf("%v forceZ=%d (pair %v, Z=%d): MARE %v > %v",
					p, forceZ, cfg.Pair, cfg.Z(), m, tol)
			}
			for i, e := range want.Data {
				if e == 0 && math.Float32bits(got.Data[i]) != 0 {
					t.Fatalf("%v forceZ=%d: element %d = %v, want +0", p, forceZ, i, got.Data[i])
				}
			}
		}
	}
}

// FP32 accuracy band on uniform [0,1) data: Ω4/Ω8 pairs should reach
// ~1e-7..1e-6 MARE (paper Table 4).
func TestExecuteAccuracyBand(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	p := conv.Params{N: 4, IH: 24, IW: 24, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1}
	x64 := tensor.NewFloat64(p.XShape())
	dy64 := tensor.NewFloat64(p.DYShape())
	for i := range x64.Data {
		x64.Data[i] = rng.Float64()
	}
	for i := range dy64.Data {
		dy64.Data[i] = rng.Float64()
	}
	want := conv.BackwardFilterDirect64(p, x64, dy64)
	got, err := BackwardFilter(p, x64.ToFloat32(), dy64.ToFloat32())
	if err != nil {
		t.Fatal(err)
	}
	if m := tensor.MARE(got, want); m > 2e-6 {
		t.Errorf("FP32 MARE %v, want <2e-6 (paper band ~1e-7)", m)
	}
}

func TestExecuteHalfMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, p := range []conv.Params{
		{N: 2, IH: 14, IW: 14, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1},
		{N: 1, IH: 20, IW: 20, FH: 5, FW: 5, IC: 3, OC: 3, PH: 2, PW: 2},
		{N: 1, IH: 18, IW: 18, FH: 7, FW: 7, IC: 2, OC: 2, PH: 3, PW: 3},
		{N: 1, IH: 26, IW: 26, FH: 9, FW: 9, IC: 2, OC: 2, PH: 4, PW: 4},
	} {
		x64 := tensor.NewFloat64(p.XShape())
		dy64 := tensor.NewFloat64(p.DYShape())
		for i := range x64.Data {
			x64.Data[i] = rng.Float64()
		}
		for i := range dy64.Data {
			dy64.Data[i] = rng.Float64() * 0.01 // the paper's FP16 ∇Y scaling
		}
		xh := x64.ToFloat32().ToHalf()
		dyh := dy64.ToFloat32().ToHalf()
		// Ground truth against the quantized inputs.
		want := conv.BackwardFilterDirect64(p, xh.ToFloat32().ToFloat64(),
			dyh.ToFloat32().ToFloat64())
		got, err := BackwardFilterHalf(p, xh, dyh)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		tol := 5e-3
		if p.FH >= 8 { // Ω16 kernels: paper band ~1e-2
			tol = 5e-2
		}
		if m := tensor.MARE(got, want); m > tol {
			t.Errorf("%v: FP16 MARE %v > %v", p, m, tol)
		}
	}
}

// Determinism: the lock-free parallel execution must produce bit-identical
// results across runs (tasks write disjoint regions; reduction order is
// fixed).
func TestExecuteDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	p := conv.Params{N: 2, IH: 20, IW: 20, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1}
	x64, dy64, _ := randLayer64(rng, p)
	x, dy := x64.ToFloat32(), dy64.ToFloat32()
	cfg, err := Configure(p, WithSegments(6))
	if err != nil {
		t.Fatal(err)
	}
	a := Execute(cfg, x, dy)
	for run := 0; run < 3; run++ {
		b := Execute(cfg, x, dy)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("run %d: nondeterministic at %d: %v vs %v",
					run, i, a.Data[i], b.Data[i])
			}
		}
	}
}

// Different forced segment counts change only rounding, never the math.
func TestSegmentCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	p := conv.Params{N: 2, IH: 24, IW: 24, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1}
	x64, dy64, want := randLayer64(rng, p)
	x, dy := x64.ToFloat32(), dy64.ToFloat32()
	for _, z := range []int{1, 2, 4, 8, 16, 24} {
		cfg, err := Configure(p, WithSegments(z))
		if err != nil {
			t.Fatal(err)
		}
		got := Execute(cfg, x, dy)
		if m := tensor.MARE(got, want); m > 1e-5 {
			t.Errorf("forceZ=%d (Z=%d): MARE %v", z, cfg.Z(), m)
		}
	}
}

// Height-axis clipping (Figure 7) is exercised whenever p_H > 0; compare a
// padded case against the direct reference to prove clipped rows are
// neither dropped nor double counted.
func TestHeightClippingCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	p := conv.Params{N: 1, IH: 8, IW: 12, FH: 5, FW: 3, IC: 2, OC: 2, PH: 2, PW: 1}
	x64, dy64, want := randLayer64(rng, p)
	got, err := BackwardFilter(p, x64.ToFloat32(), dy64.ToFloat32())
	if err != nil {
		t.Fatal(err)
	}
	if m := tensor.MARE(got, want); m > 1e-5 {
		t.Errorf("MARE %v", m)
	}
}

func TestExecuteShapeMismatchPanics(t *testing.T) {
	p := conv.Params{N: 1, IH: 8, IW: 8, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1}
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Execute(cfg, tensor.NewFloat32(tensor.Shape{N: 1, H: 7, W: 8, C: 2}),
		tensor.NewFloat32(p.DYShape()))
}

func BenchmarkExecuteWinRS(b *testing.B) {
	p := conv.Params{N: 4, IH: 32, IW: 32, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1}
	rng := rand.New(rand.NewSource(1))
	x := tensor.NewFloat32(p.XShape())
	dy := tensor.NewFloat32(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	cfg, err := Configure(p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(p.DataBytes32())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Execute(cfg, x, dy)
	}
}

func BenchmarkExecuteHalfWinRS(b *testing.B) {
	p := conv.Params{N: 4, IH: 32, IW: 32, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1}
	rng := rand.New(rand.NewSource(1))
	x := tensor.NewFloat32(p.XShape())
	dy := tensor.NewFloat32(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	xh, dyh := x.ToHalf(), dy.ToHalf()
	cfg, err := Configure(p, WithFP16())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(p.DataBytes32())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExecuteHalf(cfg, xh, dyh)
	}
}
