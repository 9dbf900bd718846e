package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/kahan"
	"winrs/internal/tensor"
)

// directCases3D are the filter shapes, paddings (both spatial padding
// axes) and channel widths of the 3-D differential tests.
var directCases3D = []conv.Params3D{
	{N: 1, ID: 6, IH: 8, IW: 8, FD: 3, FH: 3, FW: 3, IC: 2, OC: 2,
		PD: 1, PH: 1, PW: 1},
	{N: 2, ID: 4, IH: 6, IW: 10, FD: 2, FH: 2, FW: 2, IC: 2, OC: 3},
	{N: 1, ID: 5, IH: 9, IW: 12, FD: 3, FH: 5, FW: 5, IC: 2, OC: 2,
		PD: 1, PH: 2, PW: 2},
	{N: 1, ID: 7, IH: 7, IW: 13, FD: 1, FH: 3, FW: 3, IC: 3, OC: 2,
		PH: 1, PW: 1},
	// I_C = 44 runs the wide EWM panel and output row on every step: 32
	// and 8 lanes, then a 4-column tail.
	{N: 1, ID: 3, IH: 5, IW: 8, FD: 2, FH: 3, FW: 3, IC: 44, OC: 3,
		PH: 1, PW: 1},
}

func rand3DCase(rng *rand.Rand, p conv.Params3D) (*tensor.Float325, *tensor.Float325, *tensor.Float645) {
	x64 := tensor.NewFloat645(p.XShape())
	dy64 := tensor.NewFloat645(p.DYShape())
	for i := range x64.Data {
		x64.Data[i] = rng.Float64()
	}
	for i := range dy64.Data {
		dy64.Data[i] = rng.Float64()
	}
	want := conv.BackwardFilter3DDirect64(p, x64, dy64)
	return x64.ToFloat325(), dy64.ToFloat325(), want
}

// The N-D extension (k = 3) must match the direct 3-D reference across
// filter shapes and paddings on both spatial padding axes.
func TestBackwardFilter3DMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, p := range directCases3D {
		if err := p.Validate(); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		x, dy, want := rand3DCase(rng, p)
		for _, forceZ := range []int{0, 1, 4} {
			opts := []Option{}
			if forceZ > 0 {
				opts = append(opts, WithSegments(forceZ))
			}
			got, err := BackwardFilter3D(p, x, dy, opts...)
			if err != nil {
				t.Fatalf("%+v forceZ=%d: %v", p, forceZ, err)
			}
			if m := tensor.MARE5(got, want); m > 1e-5 {
				t.Errorf("%+v forceZ=%d: MARE %v", p, forceZ, m)
			}
		}
	}
}

// Segments must partition the flattened (O_D·O_H) × O_W plane exactly.
func TestConfigure3DPartition(t *testing.T) {
	p := conv.Params3D{N: 2, ID: 6, IH: 10, IW: 14, FD: 3, FH: 3, FW: 3,
		IC: 4, OC: 4, PD: 1, PH: 1, PW: 1}
	for _, forceZ := range []int{0, 1, 6, 32} {
		opts := []Option{}
		if forceZ > 0 {
			opts = append(opts, WithSegments(forceZ))
		}
		cfg, err := Configure3D(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		rows := p.OD() * p.OH()
		covered := make([]int, rows*p.OW())
		for _, s := range cfg.Segments {
			if s.Cols()%s.K.R != 0 {
				t.Errorf("segment width %d not a multiple of r=%d", s.Cols(), s.K.R)
			}
			for y := s.Row0; y < s.Row1; y++ {
				for x := s.Col0; x < s.Col1; x++ {
					covered[y*p.OW()+x]++
				}
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("forceZ=%d: cell %d covered %d times", forceZ, i, c)
			}
		}
		if cfg.WorkspaceBytes() != int64(cfg.Z()-1)*int64(p.DWShape().Elems())*4 {
			t.Error("3D workspace accounting mismatch")
		}
	}
}

// Depth-axis clipping: a layer padded on D only must still be exact.
func TestBackwardFilter3DDepthClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	p := conv.Params3D{N: 1, ID: 4, IH: 6, IW: 8, FD: 5, FH: 1, FW: 2,
		IC: 2, OC: 2, PD: 2}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	x, dy, want := rand3DCase(rng, p)
	got, err := BackwardFilter3D(p, x, dy)
	if err != nil {
		t.Fatal(err)
	}
	if m := tensor.MARE5(got, want); m > 1e-5 {
		t.Errorf("MARE %v", m)
	}
}

func TestConfigure3DRejectsInvalid(t *testing.T) {
	if _, err := Configure3D(conv.Params3D{}); err == nil {
		t.Error("expected error for zero params")
	}
}

func TestExecute3DShapeMismatchPanics(t *testing.T) {
	p := conv.Params3D{N: 1, ID: 4, IH: 4, IW: 6, FD: 2, FH: 2, FW: 2, IC: 1, OC: 1}
	cfg, err := Configure3D(p)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Execute3D(cfg, tensor.NewFloat325(tensor.Shape5{N: 1, D: 3, H: 4, W: 6, C: 1}),
		tensor.NewFloat325(p.DYShape()))
}

func BenchmarkBackwardFilter3D(b *testing.B) {
	p := conv.Params3D{N: 1, ID: 8, IH: 16, IW: 16, FD: 3, FH: 3, FW: 3,
		IC: 8, OC: 8, PD: 1, PH: 1, PW: 1}
	rng := rand.New(rand.NewSource(1))
	x := tensor.NewFloat325(p.XShape())
	dy := tensor.NewFloat325(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	cfg, err := Configure3D(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Execute3D(cfg, x, dy)
	}
}

// segmentTile3DRef is the dedicated 3-D unit kernel the shared unit kernel
// replaced, kept as the bitwise reference: the FP32 fused unit with the
// flattened (o_d, o_h) row axis and two clipped padding axes, recomputing
// every Ŵ panel per unit.
func segmentTile3DRef(p conv.Params3D, seg Segment, fd, fh, j int,
	x, dy *tensor.Float325, bucket []float32) {
	k := seg.K
	tr := k.Transform().Balanced()
	gPlan, dtPlan := tr.PanelPlans()
	n, r, alpha := tr.N, tr.R, tr.Alpha
	oc, ic := p.OC, p.IC
	oh := p.OH()

	s := getTileScratch()
	defer putTileScratch(s)
	v := growF32Zero(&s.v, alpha*oc*ic)
	wRaw := growF32(&s.wRaw, r*oc)
	wHat := growF32(&s.wHatF, alpha*oc)
	xRaw := growF32(&s.xRaw, alpha*ic)
	xHat := growF32(&s.xHatF, alpha*ic)
	colBase := j * n
	dwShape := p.DWShape()

	for row := seg.Row0; row < seg.Row1; row++ {
		od, oyh := row/oh, row%oh
		id := od + fd - p.PD
		if id < 0 || id >= p.ID {
			continue // depth-axis clipping
		}
		ih := oyh + fh - p.PH
		if ih < 0 || ih >= p.IH {
			continue // height-axis clipping
		}
		for ow0 := seg.Col0; ow0 < seg.Col1; ow0 += r {
			for nb := 0; nb < p.N; nb++ {
				for u := 0; u < r; u++ {
					base := dy.Shape.Index(nb, od, oyh, ow0+u, 0)
					copy(wRaw[u*oc:(u+1)*oc], dy.Data[base:base+oc])
				}
				gPlan.MulPanel(wRaw, wHat, r, oc)
				for u := 0; u < alpha; u++ {
					iw := ow0 + colBase + u - p.PW
					dst := xRaw[u*ic : (u+1)*ic]
					if iw < 0 || iw >= p.IW {
						for i := range dst {
							dst[i] = 0
						}
						continue
					}
					base := x.Shape.Index(nb, id, ih, iw, 0)
					copy(dst, x.Data[base:base+ic])
				}
				dtPlan.MulPanel(xRaw, xHat, alpha, ic)
				ewmPanels(v, wHat, xHat, alpha, oc, ic)
			}
		}
	}

	// Output transform into the (oc, fd, fh, colBase+i, ic) bucket slots.
	acc := growF32(&s.acc, alpha)
	for a := 0; a < oc; a++ {
		for b := 0; b < ic; b++ {
			for e := 0; e < alpha; e++ {
				acc[e] = v[(e*oc+a)*ic+b]
			}
			for i := 0; i < n; i++ {
				var s float32
				for e := 0; e < alpha; e++ {
					s += float32(tr.A.At(e, i)) * acc[e]
				}
				bucket[dwShape.Index(a, fd, fh, colBase+i, b)] += s
			}
		}
	}
}

// execute3DRef runs a 3-D plan serially through the reference unit kernel:
// every (segment, f_d, f_h, width-tile) unit into its segment's bucket,
// then the Kahan reduction.
func execute3DRef(cfg *Config3D, x, dy *tensor.Float325) *tensor.Float325 {
	p := cfg.Params
	buckets := make([][]float32, cfg.Z())
	for si, seg := range cfg.Segments {
		buckets[si] = make([]float32, p.DWShape().Elems())
		for fd := 0; fd < p.FD; fd++ {
			for fh := 0; fh < p.FH; fh++ {
				for j := 0; j < p.FW/seg.K.N; j++ {
					segmentTile3DRef(p, seg, fd, fh, j, x, dy, buckets[si])
				}
			}
		}
	}
	dw := tensor.NewFloat325(p.DWShape())
	if len(buckets) == 1 {
		copy(dw.Data, buckets[0])
		return dw
	}
	kahan.ReduceBuckets(dw.Data, buckets)
	return dw
}

// Execute3D runs the shared 2-D pipeline on the flattened plan through the
// 3-D row map; it must equal the dedicated per-unit 3-D kernel bit for bit
// on every differential shape, forced segmentation and pool width.
func TestExecute3DMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			for _, p := range directCases3D {
				x, dy, _ := rand3DCase(rng, p)
				for _, forceZ := range []int{0, 1, 4} {
					opts := []Option{}
					if forceZ > 0 {
						opts = append(opts, WithSegments(forceZ))
					}
					cfg, err := Configure3D(p, opts...)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%+v z=%d width=%d", p, forceZ, width)
					equalBits(t, name, Execute3D(cfg, x, dy).Data, execute3DRef(cfg, x, dy).Data)
				}
			}
		})
	}
}

// Configure3D feeds its volumetric block counts, byte sizes and FLOPs to
// the same Algorithm 1 as EstimateZ; the table pins the baseline target
// and realized segment count of each 3-D test shape (plus larger layers
// that leave the Ẑ = 1 regime) to the values of the dedicated 3-D copy
// the shared function replaced.
func TestConfigure3DZTable(t *testing.T) {
	cases := []struct {
		p        conv.Params3D
		hw       Hardware
		zt, z    int
		pairName string
	}{
		{directCases3D[0], DefaultHardware, 1, 2, "Omega8(3,6)+Omega4(3,2)"},
		{directCases3D[1], DefaultHardware, 1, 1, "Omega4(2,3)"},
		{directCases3D[2], DefaultHardware, 1, 1, "Omega16(5,12)"},
		{directCases3D[3], DefaultHardware, 1, 2, "Omega8(3,6)+Omega1(1,1)"},
		{conv.Params3D{N: 2, ID: 6, IH: 10, IW: 14, FD: 3, FH: 3, FW: 3, IC: 4, OC: 4, PD: 1, PH: 1, PW: 1},
			DefaultHardware, 1, 2, "Omega8(3,6)+Omega4(3,2)"},
		{conv.Params3D{N: 1, ID: 4, IH: 6, IW: 8, FD: 5, FH: 1, FW: 2, IC: 2, OC: 2, PD: 2},
			DefaultHardware, 1, 2, "Omega2(1,2)+Omega4(2,3)"},
		{conv.Params3D{N: 1, ID: 8, IH: 16, IW: 16, FD: 3, FH: 3, FW: 3, IC: 8, OC: 8, PD: 1, PH: 1, PW: 1},
			DefaultHardware, 1, 2, "Omega8(3,6)+Omega4(3,2)"},
		{conv.Params3D{N: 4, ID: 16, IH: 32, IW: 32, FD: 3, FH: 3, FW: 3, IC: 64, OC: 64, PD: 1, PH: 1, PW: 1},
			DefaultHardware, 16, 18, "Omega8(3,6)+Omega4(3,2)"},
		{conv.Params3D{N: 4, ID: 16, IH: 32, IW: 32, FD: 3, FH: 3, FW: 3, IC: 64, OC: 64, PD: 1, PH: 1, PW: 1},
			Hardware{NSM: 4}, 2, 2, "Omega8(3,6)+Omega4(3,2)"},
		{conv.Params3D{N: 8, ID: 8, IH: 16, IW: 16, FD: 3, FH: 5, FW: 5, IC: 128, OC: 64, PD: 1, PH: 2, PW: 2},
			DefaultHardware, 4, 6, "Omega16(5,12)+Omega8(5,4)"},
	}
	for _, tc := range cases {
		cfg, err := Configure3D(tc.p, WithHardware(tc.hw))
		if err != nil {
			t.Fatalf("%+v: %v", tc.p, err)
		}
		if cfg.ZTarget != tc.zt || cfg.Z() != tc.z || cfg.Pair.String() != tc.pairName {
			t.Errorf("%+v NSM=%d: ZTarget %d, Z %d, pair %v; want %d, %d, %s",
				tc.p, tc.hw.NSM, cfg.ZTarget, cfg.Z(), cfg.Pair, tc.zt, tc.z, tc.pairName)
		}
	}
}

// A depth-one 3-D layer (I_D = F_D = 1, p_D = 0) is a 2-D layer: the
// 2-D plan is the D = 1 case of the row map, so Configure3D must equal
// Configure and BackwardFilter3D must equal BackwardFilter bit for bit.
func TestBackwardFilter3DDepthOneMatches2D(t *testing.T) {
	shapes := []conv.Params{
		{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 5, PH: 1, PW: 1},
		{N: 2, IH: 14, IW: 16, FH: 5, FW: 5, IC: 2, OC: 3, PH: 2, PW: 2},
		{N: 1, IH: 20, IW: 20, FH: 9, FW: 9, IC: 3, OC: 9, PH: 4, PW: 4},
		{N: 1, IH: 14, IW: 9, FH: 3, FW: 1, IC: 3, OC: 2},
		{N: 4, IH: 32, IW: 32, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1},
	}
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			for _, p := range shapes {
				p3 := conv.Params3D{N: p.N, ID: 1, IH: p.IH, IW: p.IW, FD: 1, FH: p.FH, FW: p.FW,
					IC: p.IC, OC: p.OC, PH: p.PH, PW: p.PW}
				x, dy := poolLayer(t, 54, p)
				x3 := &tensor.Float325{Shape: p3.XShape(), Data: x.Data}
				dy3 := &tensor.Float325{Shape: p3.DYShape(), Data: dy.Data}
				for _, z := range []int{0, 3} {
					opts := []Option{}
					if z > 0 {
						opts = append(opts, WithSegments(z))
					}
					cfg, err := Configure(p, opts...)
					if err != nil {
						t.Fatal(err)
					}
					cfg3, err := Configure3D(p3, opts...)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%v z=%d width=%d", p, z, width)
					if cfg3.Pair != cfg.Pair || cfg3.ZTarget != cfg.ZTarget || !reflect.DeepEqual(cfg3.Segments, cfg.Segments) {
						t.Fatalf("%s: Configure3D plan %v/%d/%v, Configure %v/%d/%v", name,
							cfg3.Pair, cfg3.ZTarget, cfg3.Segments, cfg.Pair, cfg.ZTarget, cfg.Segments)
					}
					got, err := BackwardFilter3D(p3, x3, dy3, opts...)
					if err != nil {
						t.Fatal(err)
					}
					want, err := BackwardFilter(p, x, dy, opts...)
					if err != nil {
						t.Fatal(err)
					}
					equalBits(t, name, got.Data, want.Data)
				}
			}
		})
	}
}
