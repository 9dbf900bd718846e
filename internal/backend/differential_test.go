package backend

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/sched"
	"winrs/internal/tensor"
)

// Cross-backend differential sweep: every registered backend against the
// FP64 direct-convolution oracle over the top-level differential-sweep
// shape grid, under the eq.(7)-style bound κ·L·ε (see the package comment
// of the root differential suite for the error model). This is what lets
// dispatch claim that switching backends changes speed, never the result.
const (
	diffEps32 = 5.96e-8 // 2^-24
	diffEps16 = 4.88e-4 // 2^-11
)

func diffKappa(p conv.Params) float64 {
	k := 16.0
	for r := p.FW; r > 3; r-- {
		k *= 2
	}
	return k
}

func accLen(p conv.Params) float64 { return float64(p.N * p.OH() * p.OW()) }

// diffCases mirrors the root differential sweep grid: filter shapes,
// paddings, channel counts and the r=1/tiny-O_W edge geometries.
var diffCases = []struct {
	name string
	p    conv.Params
}{
	{"3x3_pad1", conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 5, PH: 1, PW: 1}},
	{"3x3_batched", conv.Params{N: 3, IH: 10, IW: 10, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1}},
	{"5x5_pad2", conv.Params{N: 2, IH: 14, IW: 16, FH: 5, FW: 5, IC: 2, OC: 3, PH: 2, PW: 2}},
	{"7x7", conv.Params{N: 1, IH: 16, IW: 18, FH: 7, FW: 7, IC: 2, OC: 2}},
	{"1x3_row_filter", conv.Params{N: 1, IH: 6, IW: 14, FH: 1, FW: 3, IC: 4, OC: 4}},
	{"3x1_col_filter", conv.Params{N: 1, IH: 14, IW: 9, FH: 3, FW: 1, IC: 3, OC: 2}},
	{"1x1_pointwise", conv.Params{N: 2, IH: 8, IW: 11, FH: 1, FW: 1, IC: 3, OC: 4}},
	{"nonpow2_channels", conv.Params{N: 1, IH: 13, IW: 17, FH: 3, FW: 3, IC: 5, OC: 7, PH: 1, PW: 1}},
	{"tiny_ow", conv.Params{N: 2, IH: 7, IW: 5, FH: 3, FW: 3, IC: 2, OC: 2}},
	{"wide_row", conv.Params{N: 1, IH: 4, IW: 50, FH: 3, FW: 3, IC: 2, OC: 2, PW: 1}},
}

// TestMain builds the process-wide sched pool at width 4 before any test
// runs: the pool is sized at first use, and Run caps its effective width
// at runtime GOMAXPROCS, so this makes the GOMAXPROCS=4 subtests genuinely
// four-wide on a 1-CPU CI host while the GOMAXPROCS=1 subtests still take
// the inline path.
func TestMain(m *testing.M) {
	prev := runtime.GOMAXPROCS(4)
	sched.Default()
	runtime.GOMAXPROCS(prev)
	os.Exit(m.Run())
}

func diffLayer(t testing.TB, seed int64, p conv.Params) (*tensor.Float32, *tensor.Float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewFloat32(p.XShape())
	dy := tensor.NewFloat32(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	return x, dy
}

func maxAbsErr64(got *tensor.Float32, want *tensor.Float64) float64 {
	m := 0.0
	for i := range want.Data {
		if d := math.Abs(float64(got.Data[i]) - want.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// withProcs runs fn at the given GOMAXPROCS (restored afterwards).
func withProcs(t *testing.T, procs int, fn func(t *testing.T)) {
	t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		fn(t)
	})
}

// sameBitsAcrossProcs records each (case, backend) result of the procs-1
// pass and requires the procs-4 pass to return the same bits: every
// backend runs its parallel loops on the shared pool, and each loop
// iteration writes a disjoint part of ∇W, so the pool width must never
// reach the result.
type sameBitsAcrossProcs map[string][]float32

func (m sameBitsAcrossProcs) check(t *testing.T, procs int, key string, got []float32) {
	t.Helper()
	if procs == 1 {
		m[key] = append([]float32(nil), got...)
		return
	}
	want, ok := m[key]
	if !ok {
		return // the procs-1 pass was filtered out by -run
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Errorf("%s: procs %d result differs from procs 1 at %d: %v vs %v",
				key, procs, i, got[i], want[i])
			return
		}
	}
}

func TestCrossBackendDifferentialFP32(t *testing.T) {
	serial := sameBitsAcrossProcs{}
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func(t *testing.T) {
			ran := map[string]int{}
			for i, tc := range diffCases {
				t.Run(tc.name, func(t *testing.T) {
					x, dy := diffLayer(t, int64(400+i), tc.p)
					ref := conv.BackwardFilterDirect64(tc.p, x.ToFloat64(), dy.ToFloat64())
					bound := diffKappa(tc.p) * accLen(tc.p) * diffEps32
					for _, b := range Default().Backends() {
						if !b.Supports(tc.p, FP32) {
							continue
						}
						ran[b.Name()]++
						dst := tensor.NewFloat32(tc.p.DWShape())
						if err := b.ExecuteCtx(context.Background(), tc.p, x, dy, dst); err != nil {
							t.Fatalf("%s: ExecuteCtx: %v", b.Name(), err)
						}
						if e := maxAbsErr64(dst, ref); e > bound {
							t.Errorf("%s vs FP64 oracle: err %.3g exceeds eq.(7) bound %.3g",
								b.Name(), e, bound)
						}
						serial.check(t, procs, tc.name+"/"+b.Name(), dst.Data)
					}
				})
			}
			// Every backend must have been exercised: fft and direct cover
			// all shapes, winnf the square 3×3/5×5 subset.
			for _, name := range Default().Names() {
				if ran[name] == 0 {
					t.Errorf("backend %s never ran in the FP32 sweep", name)
				}
			}
			if ran["fft"] != len(diffCases) {
				t.Errorf("fft ran %d/%d shapes", ran["fft"], len(diffCases))
			}
			if ran["winnf"] < 5 {
				t.Errorf("winnf ran only %d shapes", ran["winnf"])
			}
		})
	}
}

func TestCrossBackendDifferentialFP16(t *testing.T) {
	serial := sameBitsAcrossProcs{}
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func(t *testing.T) {
			ran := map[string]int{}
			for i, tc := range diffCases {
				t.Run(tc.name, func(t *testing.T) {
					x, dy := diffLayer(t, int64(500+i), tc.p)
					// Quantize the operands and recompute the reference from
					// the quantized values, so the bound measures algorithm
					// error rather than input quantization.
					xh, dyh := x.ToHalf(), dy.ToHalf()
					ref := conv.BackwardFilterDirect64(tc.p,
						xh.ToFloat32().ToFloat64(), dyh.ToFloat32().ToFloat64())
					bound := diffKappa(tc.p) * accLen(tc.p) * diffEps16
					for _, b := range Default().Backends() {
						if !b.Supports(tc.p, FP16) {
							continue
						}
						ran[b.Name()]++
						dst := tensor.NewFloat32(tc.p.DWShape())
						if err := b.ExecuteHalfCtx(context.Background(), tc.p, xh, dyh, dst); err != nil {
							t.Fatalf("%s: ExecuteHalfCtx: %v", b.Name(), err)
						}
						if e := maxAbsErr64(dst, ref); e > bound {
							t.Errorf("%s FP16 vs quantized FP64 oracle: err %.3g exceeds bound %.3g",
								b.Name(), e, bound)
						}
						serial.check(t, procs, tc.name+"/"+b.Name(), dst.Data)
					}
				})
			}
			for _, name := range []string{"winrs", "gemm", "direct", "winnf"} {
				if ran[name] == 0 {
					t.Errorf("backend %s never ran in the FP16 sweep", name)
				}
			}
			if ran["fft"] != 0 {
				t.Errorf("fft claims FP16 support (%d shapes)", ran["fft"])
			}
		})
	}
}
