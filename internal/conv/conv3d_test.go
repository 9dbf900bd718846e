package conv

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"winrs/internal/tensor"
)

func TestParams3DGeometry(t *testing.T) {
	p := Params3D{N: 2, ID: 8, IH: 16, IW: 16, FD: 3, FH: 3, FW: 3,
		IC: 4, OC: 8, PD: 1, PH: 1, PW: 1}
	if p.OD() != 8 || p.OH() != 16 || p.OW() != 16 {
		t.Errorf("same-padded output %dx%dx%d", p.OD(), p.OH(), p.OW())
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	if p.XShape() != (tensor.Shape5{N: 2, D: 8, H: 16, W: 16, C: 4}) {
		t.Errorf("XShape = %v", p.XShape())
	}
	if p.DWShape() != (tensor.Shape5{N: 8, D: 3, H: 3, W: 3, C: 4}) {
		t.Errorf("DWShape = %v", p.DWShape())
	}
	want := int64(2) * 8 * 27 * 4 * 8 * 16 * 16 * 2
	if p.FLOPs() != want {
		t.Errorf("FLOPs = %d, want %d", p.FLOPs(), want)
	}
}

func TestParams3DValidateRejections(t *testing.T) {
	bad := []Params3D{
		{},
		{N: 1, ID: 2, IH: 4, IW: 4, FD: 5, FH: 1, FW: 1, IC: 1, OC: 1}, // empty OD
		{N: 1, ID: 4, IH: 4, IW: 4, FD: 1, FH: 1, FW: 1, IC: 1, OC: 1, PD: -1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d should be invalid: %+v", i, p)
		}
	}
	// Geometries whose shape arithmetic overflows, each rejected by the
	// first check it fails: the 2-D N1 1²×2²⁰→2²⁰ F4096 P2048 layer at
	// depth 1, then one case per product.
	overflow := []struct {
		p    Params3D
		want string
	}{
		{Params3D{N: 1, ID: 1, IH: 1, IW: 1, FD: 1, FH: 4096, FW: 4096, IC: 1 << 20, OC: 1 << 20, PH: 2048, PW: 2048}, "∇W element count"},
		{Params3D{N: 1 << 16, ID: 1, IH: 1 << 16, IW: 1 << 16, FD: 1, FH: 1, FW: 1, IC: 1 << 16, OC: 1}, "X element count"},
		{Params3D{N: 1 << 16, ID: 1, IH: 1 << 16, IW: 1 << 16, FD: 1, FH: 1, FW: 1, IC: 1, OC: 1 << 16}, "∇Y element count"},
		{Params3D{N: 1 << 15, ID: 1, IH: 1 << 15, IW: 1 << 15, FD: 1, FH: 1, FW: 1, IC: 1 << 16, OC: 1}, "FP32 data size"},
		{Params3D{N: 1, ID: 1, IH: 1 << 12, IW: 1 << 12, FD: 1, FH: 1, FW: 1, IC: 1 << 20, OC: 1 << 20}, "FLOP count"},
		{Params3D{N: 1, ID: 4, IH: 4, IW: 4, FD: 1, FH: 1, FW: 1, IC: 1, OC: 1, PD: math.MaxInt}, "padded extent"},
	}
	for _, tc := range overflow {
		if err := tc.p.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want one naming %q", tc.p, err, tc.want)
		}
	}
}

// A 3-D BFC with F_D = 1 and I_D = 1 must reduce exactly to the 2-D case.
func TestBackwardFilter3DReducesTo2D(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p2 := Params{N: 2, IH: 7, IW: 9, FH: 3, FW: 3, IC: 2, OC: 3, PH: 1, PW: 1}
	p3 := Params3D{N: 2, ID: 1, IH: 7, IW: 9, FD: 1, FH: 3, FW: 3,
		IC: 2, OC: 3, PH: 1, PW: 1}

	x2 := tensor.NewFloat64(p2.XShape())
	dy2 := tensor.NewFloat64(p2.DYShape())
	for i := range x2.Data {
		x2.Data[i] = rng.Float64()*2 - 1
	}
	for i := range dy2.Data {
		dy2.Data[i] = rng.Float64()*2 - 1
	}
	x3 := tensor.NewFloat645(p3.XShape())
	copy(x3.Data, x2.Data) // same NDHWC layout with D=1
	dy3 := tensor.NewFloat645(p3.DYShape())
	copy(dy3.Data, dy2.Data)

	dw2 := BackwardFilterDirect64(p2, x2, dy2)
	dw3 := BackwardFilter3DDirect64(p3, x3, dy3)
	for i := range dw2.Data {
		if math.Abs(dw2.Data[i]-dw3.Data[i]) > 1e-12 {
			t.Fatalf("2D/3D mismatch at %d: %v vs %v", i, dw2.Data[i], dw3.Data[i])
		}
	}
}

// Hand-checkable tiny case: 1×1×1 filter over a 1-voxel input.
func TestBackwardFilter3DTinyExact(t *testing.T) {
	p := Params3D{N: 1, ID: 2, IH: 2, IW: 2, FD: 2, FH: 2, FW: 2, IC: 1, OC: 1}
	x := tensor.NewFloat645(p.XShape())
	dy := tensor.NewFloat645(p.DYShape()) // 1×1×1 output
	for i := range x.Data {
		x.Data[i] = float64(i + 1)
	}
	dy.Data[0] = 2
	dw := BackwardFilter3DDirect64(p, x, dy)
	// ∇W[fd,fh,fw] = X[fd,fh,fw]·2.
	for i := range dw.Data {
		if dw.Data[i] != x.Data[i]*2 {
			t.Fatalf("dw[%d] = %v, want %v", i, dw.Data[i], x.Data[i]*2)
		}
	}
}

func TestBackwardFilter3DShapePanics(t *testing.T) {
	p := Params3D{N: 1, ID: 2, IH: 2, IW: 2, FD: 1, FH: 1, FW: 1, IC: 1, OC: 1}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BackwardFilter3DDirect64(p, tensor.NewFloat645(tensor.Shape5{N: 1, D: 1, H: 2, W: 2, C: 1}),
		tensor.NewFloat645(p.DYShape()))
}
