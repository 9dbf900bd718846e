package core

import (
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

// poisonedCases are the write-once shapes: two whose f_h = 0 and f_h = 2
// units clip every row (their epilogue must still store zeros), on the Go
// panel and at an I_C the AVX2 chunk kernel takes, a forced Z ≥ 3
// segmentation, and a grouped plan with more groups than pool workers.
var poisonedCases = []struct {
	name string
	p    conv.Params
	z    int
}{
	{"all_rows_clipped", conv.Params{N: 1, IH: 1, IW: 8, FH: 3, FW: 3, IC: 3, OC: 4, PH: 1, PW: 1}, 0},
	{"all_rows_clipped_ic16", conv.Params{N: 1, IH: 1, IW: 8, FH: 3, FW: 3, IC: 16, OC: 8, PH: 1, PW: 1}, 0},
	{"z4", conv.Params{N: 2, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 5, PH: 1, PW: 1}, 4},
	{"grouped_g6", conv.Params{N: 1, IH: 8, IW: 8, FH: 3, FW: 3, IC: 12, OC: 12, PH: 1, PW: 1, Groups: 6}, 0},
}

// A reused workspace whose every bucket and the destination hold NaN
// must produce the fresh-workspace result bit for bit: each execution
// stores every bucket element once before phase 3 reads it, and phase 3
// writes every ∇W element. FP32 and FP16, inline and through a width-4
// pool.
func TestExecuteInPoisonedWorkspaceMatchesFresh(t *testing.T) {
	nan := float32(math.NaN())
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			for _, tc := range poisonedCases {
				x, dy := poolLayer(t, 97, tc.p)
				xh, dyh := x.ToHalf(), dy.ToHalf()
				for _, half := range []bool{false, true} {
					var opts []Option
					if tc.z > 0 {
						opts = append(opts, WithSegments(tc.z))
					}
					if half {
						opts = append(opts, WithFP16())
					}
					cfg, err := Configure(tc.p, opts...)
					if err != nil {
						t.Fatalf("%s half=%v: %v", tc.name, half, err)
					}
					if tc.z > 0 && cfg.Z() < 3 {
						t.Fatalf("%s: realized Z = %d, want ≥ 3", tc.name, cfg.Z())
					}
					run := func(ws *Workspace, dst *tensor.Float32) *tensor.Float32 {
						if half {
							return ExecuteHalfIn(cfg, ws, xh, dyh, dst)
						}
						return ExecuteIn(cfg, ws, x, dy, dst)
					}
					want := run(nil, nil)
					ws := NewWorkspace(cfg)
					run(ws, nil)
					fillBuckets(ws.buckets, nan)
					dst := tensor.NewFloat32(want.Shape)
					fillBuckets([][]float32{dst.Data}, nan)
					got := run(ws, dst)
					name := tc.name
					if half {
						name += "/fp16"
					}
					sameBits(t, name, got.Data, want.Data)
				}
			}
		})
	}
}
