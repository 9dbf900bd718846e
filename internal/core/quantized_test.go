package core

import (
	"fmt"
	"math/rand"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

func quantLayer() conv.Params {
	return conv.Params{N: 2, IH: 16, IW: 16, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1}
}

func quantOperands(t testing.TB, p conv.Params, seed int64) (*tensor.Float32, *tensor.Float32, *tensor.Float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x64 := tensor.NewFloat64(p.XShape())
	dy64 := tensor.NewFloat64(p.DYShape())
	for i := range x64.Data {
		x64.Data[i] = rng.Float64()
	}
	for i := range dy64.Data {
		dy64.Data[i] = rng.Float64() * 0.01
	}
	return x64.ToFloat32(), dy64.ToFloat32(),
		conv.BackwardFilterDirect64(p, x64, dy64)
}

// Identity quantizer must reproduce the FP32 path bit-for-bit.
func TestQuantizedIdentityMatchesFP32(t *testing.T) {
	p := quantLayer()
	x, dy, _ := quantOperands(t, p, 1)
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	ident := Quantizer{Name: "ident", Round: func(v float32) float32 { return v }}
	a := Execute(cfg, x, dy)
	b := ExecuteQuantized(cfg, x, dy, ident)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("identity quantizer diverged at %d: %v vs %v",
				i, a.Data[i], b.Data[i])
		}
	}
}

// Grouped and depthwise plans run the per-group plan over channel slices:
// the identity quantizer must reproduce the grouped FP32 path bit for bit
// and BF16 must stay in the same band as on ungrouped layers, at pool
// widths 1 and 4.
func TestQuantizedGrouped(t *testing.T) {
	shapes := []conv.Params{
		{N: 1, IH: 8, IW: 8, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1, Groups: 2},
		{N: 2, IH: 12, IW: 10, FH: 3, FW: 3, IC: 4, OC: 8, PH: 1, PW: 1, Groups: 4}, // depthwise, multiplier 2
	}
	ident := Quantizer{Name: "ident", Round: func(v float32) float32 { return v }}
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			for _, p := range shapes {
				x, dy, want := quantOperands(t, p, 8)
				cfg, err := Configure(p, WithSegments(2))
				if err != nil {
					t.Fatal(err)
				}
				equalBits(t, "grouped identity", ExecuteQuantized(cfg, x, dy, ident).Data, Execute(cfg, x, dy).Data)
				cfg, err = Configure(p)
				if err != nil {
					t.Fatal(err)
				}
				got := ExecuteQuantized(cfg, x, dy, QuantBF16)
				if m := tensor.MARE(got, want); m > 5e-2 {
					t.Errorf("%v width=%d: grouped BF16 MARE %v > 5e-2", p, width, m)
				}
			}
		})
	}
}

// Accuracy ordering across formats on unit-range data: FP32 best, then
// BF16/FP8-E4M3, with FP8-E5M2 (2 mantissa bits) the coarsest float format.
func TestQuantizedAccuracyOrdering(t *testing.T) {
	p := quantLayer()
	x, dy, want := quantOperands(t, p, 2)
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	mare := func(q Quantizer) float64 {
		return tensor.MARE(ExecuteQuantized(cfg, x, dy, q), want)
	}
	fp32 := tensor.MARE(Execute(cfg, x, dy), want)
	bf := mare(QuantBF16)
	e4m3 := mare(QuantFP8E4M3)
	e5m2 := mare(QuantFP8E5M2)

	if fp32 >= bf {
		t.Errorf("FP32 (%v) should beat BF16 (%v)", fp32, bf)
	}
	if bf >= e4m3 {
		t.Errorf("BF16 (%v) should beat FP8-E4M3 (%v)", bf, e4m3)
	}
	if e4m3 >= e5m2 {
		t.Errorf("FP8-E4M3 (%v) should beat FP8-E5M2 (%v)", e4m3, e5m2)
	}
	// Sanity bands: BF16 ~1e-2 mantissa → MARE well below 1e-1; all
	// formats produce usable gradients.
	if bf > 5e-2 || e5m2 > 0.5 {
		t.Errorf("quantized MAREs out of band: bf16=%v e5m2=%v", bf, e5m2)
	}
}

func TestQuantizedInt8(t *testing.T) {
	p := quantLayer()
	// Symmetric INT8 uses one grid for both operands, so both must live at
	// a comparable scale (per-tensor scales are the caller's job, as in
	// INT8 training frameworks): use unit-range dY rather than the FP16
	// test's 1e-2 scaling.
	rng := rand.New(rand.NewSource(3))
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
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	// absmax chosen from the transformed-value range of unit-scale inputs.
	got := ExecuteQuantized(cfg, x, dy, QuantInt8(4))
	m := tensor.MARE(got, want)
	if m > 0.2 {
		t.Errorf("INT8 MARE %v unusable", m)
	}
	// Degenerate quantizer: absmax 0 produces all-zero gradients, not NaN.
	zero := ExecuteQuantized(cfg, x, dy, QuantInt8(0))
	for i, v := range zero.Data {
		if v != 0 {
			t.Fatalf("zero-scale INT8 should produce zeros, got %v at %d", v, i)
		}
	}
}

// BF16's wide exponent must survive inputs that overflow binary16.
func TestBF16SurvivesFP16OverflowRange(t *testing.T) {
	p := quantLayer()
	rng := rand.New(rand.NewSource(4))
	x64 := tensor.NewFloat64(p.XShape())
	dy64 := tensor.NewFloat64(p.DYShape())
	for i := range x64.Data {
		x64.Data[i] = rng.Float64() * 1e6 // far beyond binary16's 65504
	}
	for i := range dy64.Data {
		dy64.Data[i] = rng.Float64() * 1e-6
	}
	want := conv.BackwardFilterDirect64(p, x64, dy64)
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	got := ExecuteQuantized(cfg, x64.ToFloat32(), dy64.ToFloat32(), QuantBF16)
	if m := tensor.MARE(got, want); m > 5e-2 {
		t.Errorf("BF16 MARE %v on large-range inputs", m)
	}
}

func TestQuantizedPanicsWithoutRound(t *testing.T) {
	p := quantLayer()
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil Round")
		}
	}()
	ExecuteQuantized(cfg, tensor.NewFloat32(p.XShape()),
		tensor.NewFloat32(p.DYShape()), Quantizer{Name: "broken"})
}

// The Ω16 kernels must stay finite under FP8 thanks to the scaling
// matrices (UseScaling path).
func TestQuantizedFP8LargeAlpha(t *testing.T) {
	p := conv.Params{N: 1, IH: 24, IW: 24, FH: 9, FW: 9, IC: 2, OC: 2, PH: 4, PW: 4}
	x, dy, want := quantOperands(t, p, 5)
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	got := ExecuteQuantized(cfg, x, dy, QuantFP8E4M3)
	for i, v := range got.Data {
		if v != v {
			t.Fatalf("NaN at %d", i)
		}
	}
	// FP8's 3-bit mantissa plus α = 16 output-transform cancellation is
	// genuinely marginal (a finding of this port, consistent with FP8
	// Winograd literature sticking to small tiles); assert only that the
	// result stays bounded and finite.
	if m := tensor.MARE(got, want); m > 1.5 {
		t.Errorf("FP8 Omega16 MARE %v", m)
	}
}

// The bulk RoundSlice kernels must leave the quantized execution
// bit-identical to the per-element fallback (RoundSlice stripped from the
// same quantizer) for every format that ships one.
func TestQuantizedBulkMatchesScalarFallback(t *testing.T) {
	p := quantLayer()
	x, dy, _ := quantOperands(t, p, 7)
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Quantizer{QuantBF16, QuantFP8E4M3, QuantFP8E5M2} {
		if q.RoundSlice == nil {
			t.Fatalf("%s: expected a bulk kernel", q.Name)
		}
		scalar := q
		scalar.RoundSlice = nil
		want := ExecuteQuantized(cfg, x, dy, scalar)
		got := ExecuteQuantized(cfg, x, dy, q)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: bulk path diverged from scalar fallback at %d: %v vs %v",
					q.Name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// segmentTileQuantizedRef is the per-unit quantized kernel the shared unit
// kernel replaced, kept as the bitwise reference: it mirrors the FP16 unit
// for an arbitrary storage format: gather → quantize → FP32 transform →
// quantize ("SMEM storage in the format") → FP32-accumulated EWM → FP32
// output transform, recomputing every Ŵ panel per unit.
func segmentTileQuantizedRef(p conv.Params, seg Segment, fh, j int,
	x, dy *tensor.Float32, bucket []float32, q Quantizer) {
	k := seg.K
	tr := k.Transform()
	bal := tr.Balanced()
	gMat, dMat, aMat := bal.G, bal.D, bal.A
	if q.UseScaling && tr.Alpha >= 16 {
		sc := tr.Scaled()
		gMat, dMat, aMat = sc.G, sc.D, sc.A
	}
	gPlan, dtPlan := winograd.PanelPlansFor(gMat, dMat)
	n, r, alpha := tr.N, tr.R, tr.Alpha
	oc, ic := p.OC, p.IC

	s := getTileScratch()
	defer putTileScratch(s)
	v := growF32Zero(&s.v, alpha*oc*ic)
	wRaw := growF32(&s.wRaw, r*oc)
	wHat := growF32(&s.wHatF, alpha*oc)
	xRaw := growF32(&s.xRaw, alpha*ic)
	xHat := growF32(&s.xHatF, alpha*ic)
	colBase := j * n

	for oh := seg.Row0; oh < seg.Row1; oh++ {
		ih := oh + fh - p.PH
		if ih < 0 || ih >= p.IH {
			continue // height-axis clipping
		}
		for ow0 := seg.Col0; ow0 < seg.Col1; ow0 += r {
			for nb := 0; nb < p.N; nb++ {
				// Gather the rows as raw float32, then quantize the whole
				// panel in one bulk call — bit-identical to per-element
				// rounding during the gather (Round is element-wise and
				// Round(0) = 0 for every format, so the zero-filled clipped
				// rows are unaffected).
				for u := 0; u < r; u++ {
					base := dy.Shape.Index(nb, oh, ow0+u, 0)
					copy(wRaw[u*oc:(u+1)*oc], dy.Data[base:base+oc])
				}
				quantizeSlice(wRaw, q)
				gPlan.MulPanel(wRaw, wHat, r, oc)
				quantizeSlice(wHat, q)
				for u := 0; u < alpha; u++ {
					iw := ow0 + colBase + u - p.PW
					dst := xRaw[u*ic : (u+1)*ic]
					if iw < 0 || iw >= p.IW {
						for i := range dst {
							dst[i] = 0
						}
						continue
					}
					base := x.Shape.Index(nb, ih, iw, 0)
					copy(dst, x.Data[base:base+ic])
				}
				quantizeSlice(xRaw, q)
				dtPlan.MulPanel(xRaw, xHat, alpha, ic)
				quantizeSlice(xHat, q)
				ewmPanels(v, wHat, xHat, alpha, oc, ic)
			}
		}
	}
	writeOutputRef(p, aMat, v, bucket, fh, colBase, n, alpha, oc, ic, growF32(&s.acc, alpha))
}

// quantizeSlice rounds vs in place, preferring the format's bulk kernel.
// INT8 (and any caller-supplied Quantizer without a bulk kernel) takes
// the per-element fallback.
func quantizeSlice(vs []float32, q Quantizer) {
	if q.RoundSlice != nil {
		q.RoundSlice(vs)
		return
	}
	for i, v := range vs {
		vs[i] = q.Round(v)
	}
}

// executeQuantizedRef runs a plan serially through the reference unit
// kernel: one fresh bucket set per (group) pass, every unit in schedule
// order, the same Kahan reduction; grouped plans run the per-group plan
// over channel slices into the group's ∇W slab.
func executeQuantizedRef(cfg *Config, x, dy *tensor.Float32, q Quantizer) *tensor.Float32 {
	pass := func(cfg *Config, x, dy, dst *tensor.Float32) *tensor.Float32 {
		buckets := refBuckets(cfg)
		for si, seg := range cfg.Segments {
			for fh := 0; fh < cfg.Params.FH; fh++ {
				for j := 0; j < cfg.Params.FW/seg.K.N; j++ {
					segmentTileQuantizedRef(cfg.Params, seg, fh, j, x, dy, buckets[si], q)
				}
			}
		}
		return reduceRef(cfg, buckets, dst)
	}
	if cfg.Params.G() == 1 {
		return pass(cfg, x, dy, nil)
	}
	gcfg := groupPlan(cfg)
	p, pg := cfg.Params, gcfg.Params
	xg, dyg := tensor.NewFloat32(pg.XShape()), tensor.NewFloat32(pg.DYShape())
	dst := tensor.NewFloat32(p.DWShape())
	for gi := 0; gi < p.G(); gi++ {
		sliceChannels(xg.Data, x.Data, p.N*p.IH*p.IW, p.IC, gi*p.ICG(), p.ICG())
		sliceChannels(dyg.Data, dy.Data, p.N*p.OH()*p.OW(), p.OC, gi*p.OCG(), p.OCG())
		pass(gcfg, xg, dyg, groupSlab(dst, pg.DWShape(), gi))
	}
	return dst
}

// ExecuteQuantized runs the shared pipeline (Ŵ cache, EWM tier, pooled
// units, grouped dispatch, operands rounded once per call) and must equal
// the per-unit reference kernel bit for bit: every format — including the
// per-element fallback (identity, INT8) and the degenerate all-zero INT8
// grid — ungrouped, α = 16, grouped, depthwise and wide-I_C shapes,
// default and forced segmentations, pool widths 1 and 4.
func TestQuantizedMatchesRef(t *testing.T) {
	shapes := []conv.Params{
		quantLayer(),
		{N: 1, IH: 24, IW: 24, FH: 9, FW: 9, IC: 2, OC: 2, PH: 4, PW: 4},
		{N: 1, IH: 8, IW: 8, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1, Groups: 2},
		{N: 2, IH: 12, IW: 10, FH: 3, FW: 3, IC: 4, OC: 8, PH: 1, PW: 1, Groups: 4},
		// Depthwise: the channel-wide grid, one 12-wide block at width 1,
		// an 8-wide block and a 4-wide tail at width 4.
		{N: 2, IH: 10, IW: 11, FH: 3, FW: 3, IC: 12, OC: 12, PH: 1, PW: 1, Groups: 12},
		// I_C = 44: the wide EWM panel and output row (32 + 8 lanes + 4).
		{N: 1, IH: 10, IW: 10, FH: 3, FW: 3, IC: 44, OC: 3, PH: 1, PW: 1},
	}
	quantizers := []Quantizer{
		{Name: "ident", Round: func(v float32) float32 { return v }},
		QuantBF16, QuantFP8E4M3, QuantFP8E5M2, QuantInt8(4), QuantInt8(0),
	}
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			for _, p := range shapes {
				x, dy, _ := quantOperands(t, p, 9)
				for _, z := range []int{0, 3} {
					opts := []Option{}
					if z > 0 {
						opts = append(opts, WithSegments(z))
					}
					cfg, err := Configure(p, opts...)
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range quantizers {
						name := fmt.Sprintf("%v z=%d width=%d %s", p, z, width, q.Name)
						equalBits(t, name, ExecuteQuantized(cfg, x, dy, q).Data, executeQuantizedRef(cfg, x, dy, q).Data)
					}
				}
			}
		})
	}
}
