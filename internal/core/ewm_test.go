package core

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/cpufeat"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

// Kernel-tier differential tests: every chunk kernel and the FP16
// decoded-operand path must be bit-identical to the base 4×4 path (FP32)
// and to the serial scalar-codec reference (FP16), inline and through a
// width-4 pool.

// ewmPanels is the per-tile EWM oracle of the reference executors: it
// accumulates the α-batched outer products of one fused unit,
// v[e] += Ŵ[e] ⊗ X̂[e] for e in [0, α), with v laid out [α][OC][IC], wHat
// [α][OC] and xHat [α][IC]. This is the emulated Tensor-Core MMA shared by
// the FP32, FP16 (operands pre-decoded to float32) and quantized paths.
//
// Each v element receives exactly one fused add per e, in the same (e, a,
// b) order as a naive triple loop, so register blocking leaves the
// accumulation bit-identical per element.
func ewmPanels(v, wHat, xHat []float32, alpha, oc, ic int) {
	for e := 0; e < alpha; e++ {
		ewmPanel(v[e*oc*ic:(e+1)*oc*ic], wHat[e*oc:(e+1)*oc], xHat[e*ic:(e+1)*ic], oc, ic)
	}
}

// forceEWM overrides the kernel-tier forcing mode for the duration of the
// test. Kernel forcing is a test-only hook; production always runs auto.
func forceEWM(t testing.TB, mode ewmMode) {
	t.Helper()
	prev := ewmForce
	ewmForce = mode
	t.Cleanup(func() { ewmForce = prev })
}

// ewmVariantModes is the force matrix of the differential sweeps: every
// kernel-tier mode, each pinned against the base/oracle tier. "fused"
// runs the auto kernel on one-tile chunks, the transform feeding the EWM
// tile by tile, so the chunk length is pinned not to move a bit.
var ewmVariantModes = []struct {
	name string
	mode ewmMode
}{
	{"auto", ewmAuto},
	{"block4", ewmBlock4},
	{"fused", ewmTileFused},
}

// randPanels builds Ŵ/X̂ panels with planted zero rows (the zero-skip
// paths) and a sign/magnitude mix.
func randPanels(rng *rand.Rand, alpha, oc, ic int) (wHat, xHat []float32) {
	wHat = make([]float32, alpha*oc)
	xHat = make([]float32, alpha*ic)
	for i := range wHat {
		if rng.Intn(4) == 0 {
			continue // zeros, often in runs that zero whole 4/8-row blocks
		}
		wHat[i] = (rng.Float32() - 0.5) * 4
	}
	for i := range xHat {
		xHat[i] = (rng.Float32() - 0.5) * 4
	}
	return wHat, xHat
}

// Every chunk kernel applied to a single tile must produce bit-identical
// accumulators to the base 4×4 panel across row/column remainders
// (including oc < 4 tails, ic % 8 ≠ 0 and the AVX2 kernel's 16-column
// blocks at ic = 40) and planted zero rows: each v element receives
// exactly one multiply and one add per e in every variant, so any
// difference is a real indexing or rounding bug. The AVX2 kernel runs on
// AVX2 hosts only. Where oc == ic the Ŵ panel also serves as a depthwise
// unit's [α][cb] panel, and the diagonal EWM must equal the base kernel's
// one-column product of every channel.
func TestEWMPanelVariantsMatchBase(t *testing.T) {
	type variant struct {
		name  string
		chunk ewmChunkFunc
	}
	variants := []variant{{"go", ewmChunkGo}}
	if cpufeat.HasAVX2 {
		variants = append(variants, variant{"avx2", ewmChunkAVX2})
	}
	rng := rand.New(rand.NewSource(41))
	for _, alpha := range []int{2, 4, 8, 16} {
		for _, oc := range []int{1, 3, 4, 7, 8, 9, 11, 16} {
			for _, ic := range []int{1, 3, 4, 5, 8, 9, 16, 40} {
				wHat, xHat := randPanels(rng, alpha, oc, ic)
				// Accumulate into a shared random prior — variants must
				// agree on the += behaviour, not just on fresh zeros.
				prior := make([]float32, alpha*oc*ic)
				for i := range prior {
					prior[i] = rng.Float32()
				}
				base := make([]float32, len(prior))
				copy(base, prior)
				ewmPanels(base, wHat, xHat, alpha, oc, ic)
				for _, vr := range variants {
					got := make([]float32, len(prior))
					copy(got, prior)
					for e := 0; e < alpha; e++ {
						vr.chunk(got[e*oc*ic:(e+1)*oc*ic], wHat[e*oc:(e+1)*oc], xHat[e*ic:(e+1)*ic], oc, ic, 1, false)
					}
					for i := range base {
						if got[i] != base[i] {
							t.Fatalf("%s α=%d oc=%d ic=%d: element %d differs: %v vs %v",
								vr.name, alpha, oc, ic, i, got[i], base[i])
						}
					}
				}
				if oc != ic {
					continue
				}
				want := append([]float32(nil), prior[:alpha*ic]...)
				got := append([]float32(nil), prior[:alpha*ic]...)
				for e := 0; e < alpha*ic; e += ic {
					for c := e; c < e+ic; c++ {
						ewmPanel(want[c:c+1], wHat[c:c+1], xHat[c:c+1], 1, 1)
					}
					ewmDiag(got[e:e+ic], wHat[e:e+ic], xHat[e:e+ic])
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("diag α=%d cb=%d: element %d differs: %v vs %v", alpha, ic, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// The FP16 storage policy runs its transforms through pairing-free plans
// because they must reproduce the oracle's row-by-column products
// (matMulF32 for G, matTMulF32 for Dᵀ) bit for bit: every registry
// kernel, both matrix families the FP16 path uses, widths 1–17 (the
// one-column panels of multiplier plans, every width of a depthwise
// channel block up to 16, and the two-column panel pass), with planted
// zero inputs.
func TestPairingFreePlansMatchMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range winograd.Kernels {
		tr := k.Transform()
		bal, sc := tr.Balanced(), tr.Scaled()
		for _, fam := range []struct {
			name string
			g, d *winograd.Mat
		}{{"balanced", bal.G, bal.D}, {"scaled", sc.G, sc.D}} {
			gp, dtp := winograd.SinglesPanelPlansFor(fam.g, fam.d)
			if gp.Pairs() != 0 || dtp.Pairs() != 0 {
				t.Fatalf("%v %s: pairing-free plans pair rows", k, fam.name)
			}
			r, alpha := tr.R, tr.Alpha
			for width := 1; width <= 17; width++ {
				in := make([]float32, alpha*width)
				for i := range in {
					if rng.Intn(5) != 0 {
						in[i] = (rng.Float32() - 0.5) * 8
					}
				}
				want := make([]float32, alpha*width)
				got := make([]float32, alpha*width)
				matMulF32(fam.g, in[:r*width], want, r, width)
				gp.MulPanel(in[:r*width], got, r, width)
				equalBits(t, k.String()+"/"+fam.name+"/G", got, want)

				matTMulF32(fam.d, in, want, alpha, width)
				dtp.MulPanel(in, got, alpha, width)
				equalBits(t, k.String()+"/"+fam.name+"/Dt", got, want)
			}
		}
	}
}

// ewmSweepCases is the forced-variant differential subset: shapes chosen
// to cover α ∈ {4, 8, 16} kernels, padding clip paths, O_C/I_C remainders,
// multi-segment scheduling and units of several chunks (multi_chunk), while
// keeping the mode × precision × pool matrix affordable under -race.
var ewmSweepCases = []struct {
	name string
	p    conv.Params
	segs int
}{
	{"3x3_pad1", conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 5, PH: 1, PW: 1}, 2},
	{"5x5_pad2", conv.Params{N: 2, IH: 14, IW: 16, FH: 5, FW: 5, IC: 2, OC: 3, PH: 2, PW: 2}, 2},
	{"nonpow2_channels", conv.Params{N: 1, IH: 13, IW: 17, FH: 3, FW: 3, IC: 5, OC: 7, PH: 1, PW: 1}, 3},
	{"c16_interior", conv.Params{N: 1, IH: 16, IW: 24, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1}, 2},
	{"9x9_alpha16", conv.Params{N: 1, IH: 20, IW: 20, FH: 9, FW: 9, IC: 3, OC: 9, PH: 4, PW: 4}, 0},
	{"multi_chunk", conv.Params{N: 2, IH: 12, IW: 40, FH: 3, FW: 3, IC: 24, OC: 6, PH: 1, PW: 1}, 0},
}

// The sweep must keep a geometry whose units run more than one chunk, so
// the chunk kernels' accumulating path (every chunk after the first) is
// pinned end to end, not only the first chunk's zero start.
func TestEWMSweepRunsMultiChunkUnits(t *testing.T) {
	for _, tc := range ewmSweepCases {
		cfg, err := Configure(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, seg := range cfg.Segments {
			iters := seg.Rows() * (seg.Cols() / seg.K.R) * tc.p.N
			if iters > chunkTiles(seg.K.Alpha, tc.p.OC, tc.p.IC) {
				return
			}
		}
	}
	t.Fatal("no sweep geometry runs a unit of more than one chunk")
}

// Forcing each kernel-tier mode must not change a single output bit on
// the FP32 path: the oracle is the forced base tier (block4 = the 4×4
// panel per tile, the kernel the pre-tier code ran), compared inline and
// pooled.
func TestEWMForcedVariantsMatchBaseFP32(t *testing.T) {
	for _, tc := range ewmSweepCases {
		opts := []Option{}
		if tc.segs > 0 {
			opts = append(opts, WithSegments(tc.segs))
		}
		cfg, err := Configure(tc.p, opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		x, dy := poolLayer(t, 43, tc.p)

		var want *tensor.Float32
		func() {
			forceEWM(t, ewmBlock4)
			want = Execute(cfg, x, dy)
		}()

		for _, vm := range ewmVariantModes {
			t.Run(tc.name+"/"+vm.name, func(t *testing.T) {
				forceEWM(t, vm.mode)
				got := Execute(cfg, x, dy)
				equalBits(t, "inline", got.Data, want.Data)
				withTestPool(t, 4, func() {
					got := Execute(cfg, x, dy)
					equalBits(t, "pool4", got.Data, want.Data)
				})
			})
		}
	}
}

// The FP16 force matrix: every kernel-tier mode must match the serial
// scalar-codec reference executor bit for bit. This is the oracle pinning
// of the decoded-operand residency claim: the float32-resident Ŵ cache and
// bulk-decoded operands hold exactly the values the per-unit scalar codec
// round trips produce. Each mode runs two operand mixes: "resident" on
// unit-range operands, "codec" on halfLayer's codec-stress mix (exact
// zeros, subnormal-scale and ±1024 magnitudes).
func TestEWMForcedVariantsMatchScalarRefFP16(t *testing.T) {
	for _, tc := range ewmSweepCases {
		opts := []Option{WithFP16()}
		if tc.segs > 0 {
			opts = append(opts, WithSegments(tc.segs))
		}
		cfg, err := Configure(tc.p, opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		x, dy := poolLayer(t, 44, tc.p)
		xs, dys := halfLayer(t, 44, tc.p)
		for _, mix := range []struct {
			name  string
			x, dy *tensor.Half
		}{{"resident", x.ToHalf(), dy.ToHalf()}, {"codec", xs, dys}} {
			want := executeHalfScalarRef(cfg, mix.x, mix.dy)
			for _, vm := range ewmVariantModes {
				t.Run(tc.name+"/"+vm.name+"/"+mix.name, func(t *testing.T) {
					forceEWM(t, vm.mode)
					got := ExecuteHalf(cfg, mix.x, mix.dy)
					equalBits(t, "inline", got.Data, want.Data)
					withTestPool(t, 4, func() {
						got := ExecuteHalf(cfg, mix.x, mix.dy)
						equalBits(t, "pool4", got.Data, want.Data)
					})
				})
			}
		}
	}
}

// Steady-state pooled ExecuteHalfIn must allocate nothing in the default
// decoded-operand mode: the resident Ŵ cache, the xDec/dyDec mirrors and
// the units' chunk scratch all live in reused arenas or on the stack.
func TestExecuteHalfAllocsZeroWithPool(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pinning runs without -race")
	}
	p := conv.Params{N: 1, IH: 24, IW: 24, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1}
	cfg, err := Configure(p, WithSegments(4), WithFP16())
	if err != nil {
		t.Fatal(err)
	}
	xh, dyh := halfLayer(t, 45, p)
	ws := NewWorkspace(cfg)
	dst := tensor.NewFloat32(p.DWShape())

	withTestPool(t, 4, func() {
		for i := 0; i < 8; i++ {
			ExecuteHalfIn(cfg, ws, xh, dyh, dst)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs := testing.AllocsPerRun(50, func() { ExecuteHalfIn(cfg, ws, xh, dyh, dst) })
		if allocs != 0 {
			t.Errorf("steady-state pooled ExecuteHalfIn allocates %v per run, want 0", allocs)
		}
	})
}

// EWMKernel must report the selection the executing units actually
// resolve, including force modes, the depthwise diagonal EWM, the I_C < 8
// shapes that keep the Go panel, and the Go kernel path on an AVX2 host.
func TestEWMKernelReporting(t *testing.T) {
	p := conv.Params{N: 1, IH: 16, IW: 24, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1}
	cfg, err := Configure(p) // fast kernel Ω8(3,6)
	if err != nil {
		t.Fatal(err)
	}
	cfg16, err := Configure(p, WithFP16())
	if err != nil {
		t.Fatal(err)
	}
	narrow := p
	narrow.IC = 3
	cfgNarrow, err := Configure(narrow)
	if err != nil {
		t.Fatal(err)
	}
	wide := "block4x4"
	if cpufeat.HasAVX2 {
		wide = "avx2"
	}

	forceEWM(t, ewmAuto)
	if got := cfg.EWMKernel(); got != wide {
		t.Errorf("fp32 auto: %q, want %q", got, wide)
	}
	if got := cfg16.EWMKernel(); got != wide {
		t.Errorf("fp16 auto: %q, want %q", got, wide)
	}
	if got, want := cfgNarrow.EWMKernel(), "block4x4"; got != want {
		t.Errorf("I_C = 3 auto: %q, want %q (narrow panels keep the Go 4×4 panel)", got, want)
	}
	dw := p
	dw.IC, dw.OC, dw.Groups = 16, 16, 16
	cfgDW, err := Configure(dw)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cfgDW.EWMKernel(), "diag"; got != want {
		t.Errorf("depthwise auto: %q, want %q", got, want)
	}

	forceEWM(t, ewmBlock4)
	if got, want := cfg.EWMKernel(), "block4x4"; got != want {
		t.Errorf("forced block4: %q, want %q", got, want)
	}
	if got, want := cfg16.EWMKernel(), "block4x4"; got != want {
		t.Errorf("fp16 forced block4: %q, want %q", got, want)
	}

	forceEWM(t, ewmAuto)
	if d := cfg.Describe(); d.EWMKernel != cfg.EWMKernel() {
		t.Errorf("Describe() EWMKernel %q, want %q", d.EWMKernel, cfg.EWMKernel())
	}
	forceGoKernels(t)
	if got, want := cfg.EWMKernel(), "block4x4"; got != want {
		t.Errorf("Go kernels forced: %q, want %q", got, want)
	}
}
