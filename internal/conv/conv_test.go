package conv

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"winrs/internal/tensor"
)

func randParams(rng *rand.Rand) Params {
	for {
		p := Params{
			N:  1 + rng.Intn(3),
			IH: 3 + rng.Intn(8),
			IW: 3 + rng.Intn(8),
			FH: 1 + rng.Intn(4),
			FW: 1 + rng.Intn(4),
			IC: 1 + rng.Intn(4),
			OC: 1 + rng.Intn(4),
			PH: rng.Intn(2),
			PW: rng.Intn(2),
		}
		if p.Validate() == nil {
			return p
		}
	}
}

func fillRand64(t *tensor.Float64, rng *rand.Rand) {
	for i := range t.Data {
		t.Data[i] = rng.Float64()*2 - 1
	}
}

func TestParamsGeometry(t *testing.T) {
	p := Params{N: 32, IH: 224, IW: 224, FH: 3, FW: 3, IC: 64, OC: 64, PH: 1, PW: 1}
	if p.OH() != 224 || p.OW() != 224 {
		t.Errorf("same-padding 3x3 should keep 224x224, got %dx%d", p.OH(), p.OW())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if p.XShape() != (tensor.Shape{N: 32, H: 224, W: 224, C: 64}) {
		t.Errorf("XShape = %v", p.XShape())
	}
	if p.DWShape() != (tensor.Shape{N: 64, H: 3, W: 3, C: 64}) {
		t.Errorf("DWShape = %v", p.DWShape())
	}
	// FLOPs: 2*64*3*3*64*224*224*32.
	want := int64(2) * 64 * 3 * 3 * 64 * 224 * 224 * 32
	if p.FLOPs() != want {
		t.Errorf("FLOPs = %d, want %d", p.FLOPs(), want)
	}
	if p.DataBytes32() != 2*p.DataBytes16() {
		t.Error("FP32 data size should be twice FP16")
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []Params{
		{},
		{N: 1, IH: 4, IW: 4, FH: 3, FW: 3, IC: 1, OC: 1, PH: -1},
		{N: 1, IH: 2, IW: 2, FH: 5, FW: 5, IC: 1, OC: 1}, // empty output
		{N: 0, IH: 4, IW: 4, FH: 3, FW: 3, IC: 1, OC: 1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
	// Geometries whose shape arithmetic overflows, each rejected by the
	// first check it fails: N1 1²×2²⁰→2²⁰ F4096 P2048 has a 2⁶⁴-element
	// ∇W (which wrapped to 0), then one case per product.
	overflow := []struct {
		p    Params
		want string
	}{
		{Params{N: 1, IH: 1, IW: 1, FH: 4096, FW: 4096, IC: 1 << 20, OC: 1 << 20, PH: 2048, PW: 2048}, "∇W element count"},
		{Params{N: 1 << 16, IH: 1 << 16, IW: 1 << 16, FH: 1, FW: 1, IC: 1 << 16, OC: 1}, "X element count"},
		{Params{N: 1 << 16, IH: 1 << 16, IW: 1 << 16, FH: 1, FW: 1, IC: 1, OC: 1 << 16}, "∇Y element count"},
		{Params{N: 1 << 15, IH: 1 << 15, IW: 1 << 15, FH: 1, FW: 1, IC: 1 << 16, OC: 1}, "FP32 data size"},
		{Params{N: 1, IH: 1 << 12, IW: 1 << 12, FH: 1, FW: 1, IC: 1 << 20, OC: 1 << 20}, "FLOP count"},
		{Params{N: 1, IH: 4, IW: 4, FH: 1, FW: 1, IC: 1, OC: 1, PH: math.MaxInt}, "padded extent"},
	}
	for _, tc := range overflow {
		if err := tc.p.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want one naming %q", tc.p, err, tc.want)
		}
	}
	// The strided geometry runs the same checks.
	sp := StridedParams{N: 1, IH: 1, IW: 1, FH: 4096, FW: 4096, IC: 1 << 20, OC: 1 << 20,
		PH: 2048, PW: 2048, SH: 2, SW: 2}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "∇W element count") {
		t.Errorf("strided %+v: error %v, want a ∇W overflow", sp, err)
	}
	sp = StridedParams{N: 1, IH: 4, IW: 4, FH: 1, FW: 1, IC: 1, OC: 1, PW: math.MaxInt}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "padded extent") {
		t.Errorf("strided %+v: error %v, want a padded-extent overflow", sp, err)
	}
}

// BFC must agree with an independent scalar summation written from the
// definition, including zero padding.
func TestBackwardFilterDirect64Definition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		p := randParams(rng)
		x := tensor.NewFloat64(p.XShape())
		dy := tensor.NewFloat64(p.DYShape())
		fillRand64(x, rng)
		fillRand64(dy, rng)
		dw := BackwardFilterDirect64(p, x, dy)
		// Independent re-derivation with explicit padded input.
		for oc := 0; oc < p.OC; oc++ {
			for fh := 0; fh < p.FH; fh++ {
				for fw := 0; fw < p.FW; fw++ {
					for ic := 0; ic < p.IC; ic++ {
						var s float64
						for n := 0; n < p.N; n++ {
							for oh := 0; oh < p.OH(); oh++ {
								for ow := 0; ow < p.OW(); ow++ {
									s += xAt(x, n, oh+fh-p.PH, ow+fw-p.PW, ic) * dy.At(n, oh, ow, oc)
								}
							}
						}
						if math.Abs(dw.At(oc, fh, fw, ic)-s) > 1e-12 {
							t.Fatalf("trial %d %v: dw[%d,%d,%d,%d] = %v, want %v",
								trial, p, oc, fh, fw, ic, dw.At(oc, fh, fw, ic), s)
						}
					}
				}
			}
		}
	}
}

func TestBackwardFilter32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		p := randParams(rng)
		x64 := tensor.NewFloat64(p.XShape())
		dy64 := tensor.NewFloat64(p.DYShape())
		fillRand64(x64, rng)
		fillRand64(dy64, rng)
		want := BackwardFilterDirect64(p, x64, dy64)
		got := BackwardFilterDirect32(p, x64.ToFloat32(), dy64.ToFloat32())
		if m := tensor.MARE(got, want); m > 1e-5 {
			t.Errorf("trial %d %v: MARE %v", trial, p, m)
		}
	}
}

// Gradient check: BFC must be the true gradient of the forward pass.
// Perturbing W[idx] by ε changes Σ(Y⊙∇Y) by ε·∇W[idx].
func TestBFCIsGradientOfForward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := Params{N: 2, IH: 6, IW: 5, FH: 3, FW: 3, IC: 2, OC: 3, PH: 1, PW: 1}
	x := tensor.NewFloat64(p.XShape())
	w := tensor.NewFloat64(p.DWShape())
	dy := tensor.NewFloat64(p.DYShape())
	fillRand64(x, rng)
	fillRand64(w, rng)
	fillRand64(dy, rng)

	dot := func(a, b *tensor.Float64) float64 {
		var s float64
		for i := range a.Data {
			s += a.Data[i] * b.Data[i]
		}
		return s
	}
	dw := BackwardFilterDirect64(p, x, dy)
	const eps = 1e-6
	for _, idx := range []int{0, 7, len(w.Data) - 1} {
		wPlus := tensor.NewFloat64(p.DWShape())
		copy(wPlus.Data, w.Data)
		wPlus.Data[idx] += eps
		lPlus := dot(Forward64(p, x, wPlus), dy)
		wMinus := tensor.NewFloat64(p.DWShape())
		copy(wMinus.Data, w.Data)
		wMinus.Data[idx] -= eps
		lMinus := dot(Forward64(p, x, wMinus), dy)
		numeric := (lPlus - lMinus) / (2 * eps)
		if math.Abs(numeric-dw.Data[idx]) > 1e-5 {
			t.Errorf("grad check idx %d: numeric %v vs BFC %v", idx, numeric, dw.Data[idx])
		}
	}
}

func TestForward32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := Params{N: 2, IH: 7, IW: 7, FH: 3, FW: 3, IC: 3, OC: 4, PH: 1, PW: 1}
	x := tensor.NewFloat64(p.XShape())
	w := tensor.NewFloat64(p.DWShape())
	fillRand64(x, rng)
	fillRand64(w, rng)
	want := Forward64(p, x, w)
	got := Forward32(p, x.ToFloat32(), w.ToFloat32())
	if m := tensor.MARE(got, want); m > 1e-5 {
		t.Errorf("MARE %v", m)
	}
}

// BDC gradient check: ∇X must be the gradient of Σ(Y⊙∇Y) w.r.t. X.
func TestBDCIsGradientOfForward(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := Params{N: 1, IH: 5, IW: 5, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1}
	x := tensor.NewFloat64(p.XShape())
	w := tensor.NewFloat64(p.DWShape())
	dy := tensor.NewFloat64(p.DYShape())
	fillRand64(x, rng)
	fillRand64(w, rng)
	fillRand64(dy, rng)
	dx := BackwardData32(p, dy.ToFloat32(), w.ToFloat32())

	dot := func(a, b *tensor.Float64) float64 {
		var s float64
		for i := range a.Data {
			s += a.Data[i] * b.Data[i]
		}
		return s
	}
	const eps = 1e-5
	for _, idx := range []int{0, 13, len(x.Data) - 1} {
		xp := tensor.NewFloat64(p.XShape())
		copy(xp.Data, x.Data)
		xp.Data[idx] += eps
		lp := dot(Forward64(p, xp, w), dy)
		xm := tensor.NewFloat64(p.XShape())
		copy(xm.Data, x.Data)
		xm.Data[idx] -= eps
		lm := dot(Forward64(p, xm, w), dy)
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(dx.Data[idx])) > 1e-3 {
			t.Errorf("BDC grad check idx %d: numeric %v vs BDC %v", idx, numeric, dx.Data[idx])
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	p := Params{N: 1, IH: 4, IW: 4, FH: 3, FW: 3, IC: 1, OC: 1}
	wrong := tensor.NewFloat64(tensor.Shape{N: 1, H: 5, W: 4, C: 1})
	dy := tensor.NewFloat64(p.DYShape())
	defer func() {
		if recover() == nil {
			t.Error("expected panic on X shape mismatch")
		}
	}()
	BackwardFilterDirect64(p, wrong, dy)
}

func BenchmarkBackwardFilterDirect32(b *testing.B) {
	p := Params{N: 4, IH: 32, IW: 32, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1}
	rng := rand.New(rand.NewSource(1))
	x := tensor.NewFloat32(p.XShape())
	dy := tensor.NewFloat32(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	b.SetBytes(p.DataBytes32())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BackwardFilterDirect32(p, x, dy)
	}
}
