package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/kahan"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

// This file pins the unit epilogue and phase 3 against independent
// oracles: the per-element read-modify-write output transform the
// streaming writeOutput replaced, and fresh zeroed workspaces for the
// write-once bucket contract.

// writeOutputRef is the per-element output transform oracle: for each
// (oc, ic) it gathers the α accumulators, forms each column's dot product
// with A from +0 in ascending e, and adds it into a zeroed bucket. The
// serial reference executors use it so they never check the production
// epilogue against itself. acc is α-length scratch.
func writeOutputRef(p conv.Params, aMat *winograd.Mat, v []float32, bucket []float32,
	fh, colBase, n, alpha, oc, ic int, acc []float32) {
	dwShape := p.DWShape()
	for a := 0; a < oc; a++ {
		for b := 0; b < ic; b++ {
			for e := 0; e < alpha; e++ {
				acc[e] = v[(e*oc+a)*ic+b]
			}
			for i := 0; i < n; i++ {
				var s float32
				for e := 0; e < alpha; e++ {
					s += float32(float32(aMat.At(e, i)) * acc[e])
				}
				idx := dwShape.Index(a, fh, colBase+i, b)
				bucket[idx] += s
			}
		}
	}
}

// reduceRef is the reference executors' serial phase 3: a plain copy for
// Z = 1, else kahan.ReduceBuckets, into dst (allocated when nil).
func reduceRef(cfg *Config, buckets [][]float32, dst *tensor.Float32) *tensor.Float32 {
	if dst == nil {
		dst = tensor.NewFloat32(cfg.Params.DWShape())
	}
	if len(buckets) == 1 {
		copy(dst.Data, buckets[0])
		return dst
	}
	kahan.ReduceBuckets(dst.Data, buckets)
	return dst
}

// refBuckets returns Z fresh zeroed ∇W-sized buckets for the serial
// reference executors, which add into them (writeOutputRef).
func refBuckets(cfg *Config) [][]float32 {
	buckets := make([][]float32, cfg.Z())
	for i := range buckets {
		buckets[i] = make([]float32, cfg.Params.DWShape().Elems())
	}
	return buckets
}

// sameBits fails unless got and want hold identical bit patterns (so +0
// and −0 differ, and NaN never matches a number).
func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#08x), want %v (%#08x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// fillBuckets sets every element of every bucket to v.
func fillBuckets(buckets [][]float32, v float32) {
	for _, b := range buckets {
		for i := range b {
			b[i] = v
		}
	}
}

// The streaming epilogue, storing into a NaN-filled bucket, must equal the
// per-element oracle adding into a zeroed one, bit for bit, once every
// (f_h, width tile) unit of a segment has run: each unit's rows equal the
// oracle's sums and together the units store every bucket element. Covers
// every registry kernel and the direct fallbacks, under both output
// matrices a storage policy can pick, across channel counts on and off the
// register-block multiples.
func TestWriteOutputMatchesRef(t *testing.T) {
	kernels := append(append([]winograd.Kernel(nil), winograd.Kernels...),
		winograd.DirectKernel(1), winograd.DirectKernel(3))
	chans := []int{1, 3, 8, 9, 17}
	rng := rand.New(rand.NewSource(41))
	for _, k := range kernels {
		for _, st := range []storage{fp32Storage, halfStorage} {
			_, _, aMat := st.mats(k.Transform())
			n, alpha := k.N, k.Alpha
			for _, oc := range chans {
				for _, ic := range chans {
					p := conv.Params{FH: 2, FW: 2 * n, IC: ic, OC: oc}
					elems := p.DWShape().Elems()
					want := make([]float32, elems)
					got := make([]float32, elems)
					for i := range got {
						got[i] = float32(math.NaN())
					}
					v := make([]float32, alpha*oc*ic)
					accRef := make([]float32, alpha)
					acc := make([]float32, alpha*n+ic)
					for fh := 0; fh < p.FH; fh++ {
						for j := 0; j < p.FW/n; j++ {
							for i := range v {
								switch rng.Intn(6) {
								case 0:
									v[i] = 0
								case 1:
									v[i] = float32(math.Copysign(0, -1))
								default:
									v[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
								}
							}
							writeOutputRef(p, aMat, v, want, fh, j*n, n, alpha, oc, ic, accRef)
							writeOutput(p, aMat, v, got, fh, j*n, n, alpha, oc, ic, acc, nil)
						}
					}
					sameBits(t, k.String()+"/"+p.DWShape().String(), got, want)
				}
			}
		}
	}
}

// poisonedCase is a 2-D plan of the write-once check, at a forced segment
// count z when positive. merge, when nonzero, is the merge force its plan
// is configured under (forceMerge); merged asserts that the plan runs its
// residual units inside its fast units.
type poisonedCase struct {
	name   string
	p      conv.Params
	z      int
	merge  int
	merged bool
}

// poisoned3DCase is a 3-D plan of the write-once check, configured under
// the merge force merge (forceMerge).
type poisoned3DCase struct {
	name  string
	p     conv.Params3D
	merge int
}

// poisonedCases are the write-once shapes, one or more of every plan
// kind: two whose f_h = 0 and f_h = 2 units clip every row (their
// epilogue must still store zeros), on the Go panel and at an I_C the
// AVX2 chunk kernel takes; forced Z = 4 and Z = 6 segmentations; grouped
// plans with more groups than pool workers and with ragged O_C blocks;
// depthwise plans on the channel-wide grid, one at a forced Z ≥ 3; a
// multiplier plan; a plan whose fast units run its residual units by
// force; a 2×2 filter, a 7×7 one, and an O_W of 7 that no registry pair
// tiles (Ω8(3,6) beside a direct residual unit).
var poisonedCases = []poisonedCase{
	{name: "all_rows_clipped", p: conv.Params{N: 1, IH: 1, IW: 8, FH: 3, FW: 3, IC: 3, OC: 4, PH: 1, PW: 1}},
	{name: "all_rows_clipped_ic16", p: conv.Params{N: 1, IH: 1, IW: 8, FH: 3, FW: 3, IC: 16, OC: 8, PH: 1, PW: 1}},
	{name: "z4", p: conv.Params{N: 2, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 5, PH: 1, PW: 1}, z: 4},
	{name: "grouped_g6", p: conv.Params{N: 1, IH: 8, IW: 8, FH: 3, FW: 3, IC: 12, OC: 12, PH: 1, PW: 1, Groups: 6}},
	{name: "depthwise_20x20x16", p: conv.Params{N: 1, IH: 20, IW: 20, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1, Groups: 16}},
	{name: "depthwise_z3", p: conv.Params{N: 1, IH: 20, IW: 20, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1, Groups: 16}, z: 3},
	{name: "multiplier_g8", p: conv.Params{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 8, OC: 16, PH: 1, PW: 1, Groups: 8}},
	{name: "merged_forced", p: conv.Params{N: 1, IH: 13, IW: 17, FH: 3, FW: 3, IC: 5, OC: 7, PH: 1, PW: 1}, merge: 1, merged: true},
	{name: "f2x2_9x7", p: conv.Params{N: 1, IH: 9, IW: 7, FH: 2, FW: 2, IC: 3, OC: 4}},
	{name: "untileable_9x9", p: conv.Params{N: 1, IH: 9, IW: 9, FH: 3, FW: 3, IC: 3, OC: 4}},
	{name: "z6", p: conv.Params{N: 2, IH: 20, IW: 20, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1}, z: 6},
	{name: "7x7_filter", p: conv.Params{N: 1, IH: 16, IW: 18, FH: 7, FW: 7, IC: 2, OC: 2}},
	{name: "grouped_ragged_g3", p: conv.Params{N: 1, IH: 10, IW: 10, FH: 3, FW: 3, IC: 6, OC: 9, PH: 1, PW: 1, Groups: 3}},
}

// poisoned3DCases are a small 3-D layer with its residual units inside
// its fast units and, configured with the merge off, with its own
// residual bucket.
var poisoned3DCases = []poisoned3DCase{
	{"3d_merged", conv.Params3D{N: 1, ID: 3, IH: 7, IW: 7, FD: 2, FH: 3, FW: 3, IC: 5, OC: 7, PD: 1, PH: 1, PW: 1}, 1},
	{"3d_separate", conv.Params3D{N: 1, ID: 3, IH: 7, IW: 7, FD: 2, FH: 3, FW: 3, IC: 5, OC: 7, PD: 1, PH: 1, PW: 1}, -1},
}

// poisonedLayers and poisoned3DLayers are workload-sized plans of the
// write-once check: dw1 of the MobileNet trunk, the benchmark's VGG16
// conv4_2 (7²×512→512), whose fast units run its residual units by the
// rule, and two depth slices of it, merged and with the merge off. The
// forced-plan reruns of the bitwise suites leave them out: at a forced
// O_C block of 1 the 7²×512→512 plans run 1,536 units each, 17 s under
// the race detector.
var (
	poisonedLayers = []poisonedCase{
		{name: "depthwise_dw1", p: conv.Params{N: 1, IH: 112, IW: 112, FH: 3, FW: 3, IC: 32, OC: 32, PH: 1, PW: 1, Groups: 32}},
		{name: "merged_7x7x512", p: vgg16Params(7, 512, 512), merged: true},
	}
	poisoned3DLayers = []poisoned3DCase{
		{"3d_merged_7x7x512", conv.Params3D{N: 1, ID: 2, IH: 7, IW: 7, FD: 1, FH: 3, FW: 3, IC: 512, OC: 512, PH: 1, PW: 1}, 1},
		{"3d_separate_7x7x512", conv.Params3D{N: 1, ID: 2, IH: 7, IW: 7, FD: 1, FH: 3, FW: 3, IC: 512, OC: 512, PH: 1, PW: 1}, -1},
	}
)

// checkFreshPoisoned fails unless got, a run into NaN-filled memory,
// matches want, the fresh run, bit for bit, and want holds no NaN: the
// operands are finite, so a NaN in the fresh result is an element no unit
// stored, read from recycled memory.
func checkFreshPoisoned(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i, v := range want {
		if v != v {
			t.Fatalf("%s: fresh result element %d is NaN", name, i)
		}
	}
	sameBits(t, name, got, want)
}

// Results and buckets are allocated uncleared, so every plan kind must
// store every element of both. A reused workspace whose every bucket and
// the destination hold NaN must produce the fresh run's result bit for
// bit: each execution stores every bucket element once before phase 3 or
// a merged plan's fold reads it, and every ∇W element has a writer. FP32,
// FP16 and BF16 quantized storage, and 3-D plans through execute's dst,
// inline and through a width-4 pool.
func TestExecuteInPoisonedWorkspaceMatchesFresh(t *testing.T) {
	checkPoisoned(t, poisonedCases, poisoned3DCases)
}

// The write-once check on the workload-sized plans.
func TestExecuteInPoisonedWorkspaceMatchesFreshLayers(t *testing.T) {
	checkPoisoned(t, poisonedLayers, poisoned3DLayers)
}

// checkPoisoned runs the write-once check on cases and cases3D, inline
// and through a width-4 pool, one subtest per case and width.
func checkPoisoned(t *testing.T, cases []poisonedCase, cases3D []poisoned3DCase) {
	nan := float32(math.NaN())
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s_width%d", tc.name, width), func(t *testing.T) {
					if tc.merge != 0 {
						forceMerge(t, tc.merge)
					}
					x, dy := poolLayer(t, 97, tc.p)
					xh, dyh := x.ToHalf(), dy.ToHalf()
					for _, prec := range []string{"fp32", "fp16", "bf16"} {
						var opts []Option
						if tc.z > 0 {
							opts = append(opts, WithSegments(tc.z))
						}
						if prec == "fp16" {
							opts = append(opts, WithFP16())
						}
						cfg, err := Configure(tc.p, opts...)
						if err != nil {
							t.Fatalf("%s: %v", prec, err)
						}
						if tc.z > 0 && cfg.Z() < 3 {
							t.Fatalf("%s: realized Z = %d, want ≥ 3", prec, cfg.Z())
						}
						if tc.merged && !cfg.residMerged {
							t.Fatalf("%s: plan does not run its residual units inside its fast units", prec)
						}
						run := func(ws *Workspace, dst *tensor.Float32) *tensor.Float32 {
							switch prec {
							case "fp16":
								return ExecuteHalfIn(cfg, ws, xh, dyh, dst)
							case "bf16":
								ops := planar(cfg.Params, x.Shape, dy.Shape, operand{f32: x.Data}, operand{f32: dy.Data}, "ExecuteQuantized")
								out, _ := execute(cfg, ws, ops, quantStorage(QuantBF16), dst, nil)
								return out
							}
							return ExecuteIn(cfg, ws, x, dy, dst)
						}
						want := run(nil, nil)
						ws := NewWorkspace(cfg)
						run(ws, nil)
						fillBuckets(ws.buckets, nan)
						dst := tensor.NewFloat32(want.Shape)
						fillBuckets([][]float32{dst.Data}, nan)
						checkFreshPoisoned(t, prec, run(ws, dst).Data, want.Data)
					}
				})
			}
			for _, tc := range cases3D {
				t.Run(fmt.Sprintf("%s_width%d", tc.name, width), func(t *testing.T) {
					forceMerge(t, tc.merge)
					cfg, err := Configure3D(tc.p)
					if err != nil {
						t.Fatal(err)
					}
					if cfg.residMerged != (tc.merge > 0) {
						t.Fatalf("merged %v", cfg.residMerged)
					}
					rng := rand.New(rand.NewSource(98))
					x, dy := tensor.NewFloat325(tc.p.XShape()), tensor.NewFloat325(tc.p.DYShape())
					x.FillUniform(rng, 0, 1)
					dy.FillUniform(rng, 0, 1)
					want := Execute3D(cfg, x, dy)
					ops := operands{rows: rows3D(tc.p), x: operand{f32: x.Data}, dy: operand{f32: dy.Data}}
					ws := NewWorkspace(cfg.Config)
					execute(cfg.Config, ws, ops, fp32Storage, nil, nil)
					fillBuckets(ws.buckets, nan)
					dst := tensor.NewFloat32(cfg.Config.Params.DWShape())
					fillBuckets([][]float32{dst.Data}, nan)
					got, _ := execute(cfg.Config, ws, ops, fp32Storage, dst, nil)
					checkFreshPoisoned(t, "fp32", got.Data, want.Data)
				})
			}
		})
	}
}
