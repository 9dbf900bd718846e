package core

import (
	"math"
	"math/rand"
	"testing"

	"winrs/internal/cpufeat"
)

// forceGoKernels clears cpufeat.HasAVX2 and cpufeat.HasF16C for the
// duration of the test, so the EWM kernel selection, the panel transforms,
// the diagonal EWM, the output rows, the bucket reduce and the binary16
// rounding and decode run their Go loops on an AVX2/F16C host. Like
// forceEWM it is a test-only hook.
func forceGoKernels(t testing.TB) {
	t.Helper()
	avx2, f16c := cpufeat.HasAVX2, cpufeat.HasF16C
	cpufeat.HasAVX2, cpufeat.HasF16C = false, false
	t.Cleanup(func() { cpufeat.HasAVX2, cpufeat.HasF16C = avx2, f16c })
}

// The bitwise suites run once on whatever kernels the host selects; on an
// AVX2 or F16C host this runs them again on the Go loops, so both kernel
// paths are pinned to the same oracles.
func TestBitwiseSuitesGoKernels(t *testing.T) {
	if !cpufeat.HasAVX2 && !cpufeat.HasF16C {
		t.Skip("no AVX2 or F16C: the suites already ran the Go loops")
	}
	forceGoKernels(t)
	for _, s := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"WriteOutputMatchesRef", TestWriteOutputMatchesRef},
		{"ExecuteInPoisonedWorkspaceMatchesFresh", TestExecuteInPoisonedWorkspaceMatchesFresh},
		{"PoolMatchesInline2D", TestPoolMatchesInline2D},
		{"PoolMatchesInlineStrided", TestPoolMatchesInlineStrided},
		{"PoolMatchesInline3D", TestPoolMatchesInline3D},
		{"ConcurrentExecuteSharedPool", TestConcurrentExecuteSharedPool},
		{"ExecuteInCtxCancelMidRunWorkspaceReusable", TestExecuteInCtxCancelMidRunWorkspaceReusable},
		{"ExecuteHalfMatchesScalarCodecRef", TestExecuteHalfMatchesScalarCodecRef},
		{"QuantizedMatchesRef", TestQuantizedMatchesRef},
		{"Execute3DMatchesRef", TestExecute3DMatchesRef},
		{"EWMPanelVariantsMatchBase", TestEWMPanelVariantsMatchBase},
		{"EWMForcedVariantsMatchBaseFP32", TestEWMForcedVariantsMatchBaseFP32},
		{"DepthwiseChannelWideMatchesPerGroup", TestDepthwiseChannelWideMatchesPerGroup},
		{"GroupedInterleavedMatchesSequential", TestGroupedInterleavedMatchesSequential},
	} {
		t.Run(s.name, s.run)
	}
}

// fuzzFloat maps three fuzz bytes to a float32: ±0, a subnormal, or
// ±(1 + frac/256)·10^k with k in [−30, 30]; with special set, also ±Inf
// and NaN.
func fuzzFloat(class, exp, frac byte, special bool) float32 {
	sign := float32(1)
	if class&1 != 0 {
		sign = -1
	}
	switch class >> 1 % 8 {
	case 0:
		return sign * 0
	case 1:
		return sign * math.Float32frombits(uint32(exp)<<8|uint32(frac)+1)
	case 2:
		if special {
			return sign * float32(math.Inf(1))
		}
	case 3:
		if special {
			return float32(math.NaN())
		}
	}
	return sign * (1 + float32(frac)/256) * float32(math.Pow(10, float64(int(exp)%61-30)))
}

// fuzzFloats fills a fresh slice of n values from data, three bytes per
// value, cycling through data (and through its byte positions) when it
// is short; empty data gives zeros.
func fuzzFloats(data []byte, n, salt int, special bool) []float32 {
	out := make([]float32, n)
	if len(data) == 0 {
		return out
	}
	at := func(i int) byte { return data[i%len(data)] + byte(i/len(data)) }
	for i := range out {
		j := 3 * (i + salt)
		out[i] = fuzzFloat(at(j), at(j+1), at(j+2), special)
	}
	return out
}

// sameBitsOrNaN reports the first index where got and want differ in bits,
// counting any NaN equal to any NaN, or −1.
func sameBitsOrNaN(got, want []float32) int {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

// ewmChunkRef is the chunk kernels' per-tile oracle: tile by tile in
// ascending order, the rank-1 update ve[a][b] += we[t][a]·xe[t][b] of
// every row whose Ŵ is not ±0 (a per-row zero skip), into accumulators
// cleared on the first chunk.
func ewmChunkRef(ve, we, xe []float32, oc, ic, tc int, first bool) {
	if first {
		clear(ve[:oc*ic])
	}
	for t := 0; t < tc; t++ {
		for a := 0; a < oc; a++ {
			wv := we[t*oc+a]
			if wv == 0 {
				continue
			}
			row := ve[a*ic : (a+1)*ic]
			for b, xv := range xe[t*ic : (t+1)*ic] {
				row[b] += float32(wv * xv)
			}
		}
	}
}

// runChunked runs kernel over an L-tile sequence split into chunks of up
// to tc tiles, the way a dense unit does: the first chunk starts from +0,
// the later ones add to ve.
func runChunked(kernel ewmChunkFunc, ve, we, xe []float32, oc, ic, l, tc int) {
	for t0 := 0; t0 < l; t0 += tc {
		n := min(tc, l-t0)
		kernel(ve, we[t0*oc:(t0+n)*oc], xe[t0*ic:(t0+n)*ic], oc, ic, n, t0 == 0)
	}
}

// The AVX2 chunk kernel must match the per-tile oracle bit for bit (NaN
// equal to NaN) on unit-like sequences of 1, T_c−1, T_c, T_c+1 and
// 2·T_c+3 tiles run in chunks of T_c = maxChunkTiles, at O_C from 1 to 64
// (every row tail of the 4-row blocks) and I_C from 8 to 512 (the 8-column
// block and the Go column tail), with planted ±0 Ŵ entries and rows,
// tiles whose X̂ holds ±Inf and NaN under Ŵ rows that are all ±0 but one,
// and accumulators pre-filled with NaN, which the first chunk must never
// read.
func TestEWMBlockedMatchesPanel(t *testing.T) {
	if !cpufeat.HasAVX2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(47))
	tc := maxChunkTiles
	nonFinite := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for _, l := range []int{1, tc - 1, tc, tc + 1, 2*tc + 3} {
		for _, oc := range []int{1, 2, 3, 4, 5, 7, 64} {
			for _, ic := range []int{8, 9, 15, 16, 17, 24, 40, 512} {
				we := make([]float32, l*oc)
				xe := make([]float32, l*ic)
				for i := range xe {
					xe[i] = (rng.Float32() - 0.5) * 4
				}
				for i := range we {
					switch rng.Intn(6) {
					case 0:
						we[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
					default:
						we[i] = (rng.Float32() - 0.5) * 4
					}
				}
				for ti := 0; ti < l; ti++ {
					wt := we[ti*oc : (ti+1)*oc]
					switch rng.Intn(6) {
					case 0: // a zero Ŵ row for the whole tile
						clear(wt)
					case 1: // non-finite X̂ under Ŵ that is ±0 but for one row
						for a := range wt {
							wt[a] = 0
						}
						wt[rng.Intn(oc)] = 1.5
						xt := xe[ti*ic : (ti+1)*ic]
						for k := 0; k < 3; k++ {
							xt[rng.Intn(ic)] = nonFinite[rng.Intn(len(nonFinite))]
						}
					}
				}
				want := make([]float32, oc*ic)
				got := make([]float32, oc*ic)
				for i := range got {
					got[i] = float32(math.NaN())
				}
				ewmChunkRef(want, we, xe, oc, ic, l, true)
				runChunked(ewmChunkAVX2, got, we, xe, oc, ic, l, tc)
				if i := sameBitsOrNaN(got, want); i >= 0 {
					t.Fatalf("L=%d oc=%d ic=%d: element %d = %v, want %v", l, oc, ic, i, got[i], want[i])
				}
			}
		}
	}
}

// The AVX2 chunk kernel must match the per-tile oracle bit for bit (NaN
// equal to NaN) at every O_C from 0 to 12 and I_C from 0 to 80 (every row
// and column tail), 1 to 40 tiles in one chunk, on unaligned slice
// starts, from +0 or from a prior that may hold −0, with planted ±0 Ŵ
// entries, subnormals, magnitudes up to 1e30, ±Inf and NaN.
func FuzzEWMPanelAVX2(f *testing.F) {
	f.Add([]byte{0x10, 0x40, 0x80, 0x01, 0x3c, 0x07}, uint8(5), uint8(17), uint8(3), uint8(1), uint8(3))
	f.Add([]byte{0x04, 0x22, 0x99}, uint8(16), uint8(80), uint8(33), uint8(0), uint8(0))
	f.Add([]byte{0x00, 0x02, 0x03, 0x11, 0xff, 0x30}, uint8(9), uint8(40), uint8(8), uint8(7), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, ocB, icB, tcB, shift, zeroB uint8) {
		if !cpufeat.HasAVX2 {
			t.Skip("no AVX2")
		}
		oc, ic, tc, sh := int(ocB%13), int(icB%81), 1+int(tcB%40), int(shift%8)
		first := zeroB&0x80 != 0
		we := fuzzFloats(data, sh+tc*oc, 0, false)[sh:]
		for i := range we {
			if int(zeroB)&(1<<(i%7)) != 0 {
				we[i] = float32(math.Copysign(0, float64(1-2*(i&1))))
			}
		}
		xe := fuzzFloats(data, sh+tc*ic, 7, true)[sh:]
		prior := fuzzFloats(data, sh+oc*ic, 13, true)
		want := append([]float32(nil), prior...)[sh:]
		got := append([]float32(nil), prior...)[sh:]
		ewmChunkRef(want, we, xe, oc, ic, tc, first)
		ewmChunkAVX2(got, we, xe, oc, ic, tc, first)
		if i := sameBitsOrNaN(got, want); i >= 0 {
			t.Fatalf("oc=%d ic=%d tc=%d first=%v shift=%d: element %d = %v, want %v",
				oc, ic, tc, first, sh, i, got[i], want[i])
		}
	})
}

// The AVX2 output kernel must match outputRowsGo bit for bit (NaN equal
// to NaN) for every row count it takes (1 to maxOutputRows), α from 1 to
// 16, widths on and off the 8-column blocks, with ±0, subnormal, ±Inf
// and NaN accumulators and ±0 coefficients (0·Inf must stay NaN). Its
// rows start from stale NaN, and the row after the n it owns stays
// untouched.
func TestOutputRowsMatchesGo(t *testing.T) {
	if !cpufeat.HasAVX2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(53))
	special := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	value := func() float32 {
		if rng.Intn(8) == 0 {
			return special[rng.Intn(len(special))]
		}
		return float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
	}
	const sentinel = float32(-12345.5)
	for n := 1; n <= maxOutputRows; n++ {
		for _, alpha := range []int{1, 2, 3, 4, 6, 8, 16} {
			for _, width := range []int{1, 7, 8, 9, 16, 23, 40, 64} {
				stride := width + rng.Intn(9)
				a := make([]float32, alpha*n)
				for i := range a {
					a[i] = value()
				}
				v := make([]float32, (alpha-1)*stride+width)
				for i := range v {
					v[i] = value()
				}
				want := make([]float32, n*width)
				got := make([]float32, (n+1)*width)
				for i := range got {
					got[i] = float32(math.NaN())
				}
				for i := n * width; i < len(got); i++ {
					got[i] = sentinel
				}
				outputRowsGo(want, a, v, n, 0, width, stride)
				outputRows(got[:n*width], a, v, n, width, stride)
				if i := sameBitsOrNaN(got, want); i >= 0 {
					t.Fatalf("n=%d α=%d width=%d stride=%d: element %d = %v, want %v",
						n, alpha, width, stride, i, got[i], want[i])
				}
				for i, g := range got[n*width:] {
					if g != sentinel {
						t.Fatalf("n=%d α=%d width=%d: row %d column %d overwritten with %v", n, alpha, width, n, i, g)
					}
				}
			}
		}
	}
}

// The AVX2 output kernel must match outputRowsGo bit for bit (NaN equal
// to NaN) at n from 1 to 12 rows, α from 1 to 16 terms, every width from
// 0 to 80, strides beyond the width, unaligned starts, and ±0, subnormal,
// 1e±30, ±Inf and NaN operands.
func FuzzOutputRowAVX2(f *testing.F) {
	f.Add([]byte{0x10, 0x40, 0x80, 0x01, 0x3c, 0x07}, uint8(3), uint8(17), uint8(8), uint8(0), uint8(1))
	f.Add([]byte{0x06, 0x22, 0x99, 0x07}, uint8(9), uint8(80), uint8(16), uint8(5), uint8(0))
	f.Add([]byte{0x00, 0x02, 0x03}, uint8(12), uint8(40), uint8(3), uint8(2), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, rowsB, widthB, alphaB, padB, shift uint8) {
		if !cpufeat.HasAVX2 {
			t.Skip("no AVX2")
		}
		n, width, alpha, sh := 1+int(rowsB%12), int(widthB%81), 1+int(alphaB%16), int(shift%8)
		stride := width + int(padB%9)
		a := fuzzFloats(data, sh+alpha*n, 0, true)[sh:]
		v := fuzzFloats(data, sh+(alpha-1)*stride+width, 5, true)[sh:]
		want := make([]float32, sh+n*width)[sh:]
		got := fuzzFloats(data, sh+n*width, 11, true)[sh:] // stale contents
		outputRowsGo(want, a, v, n, 0, width, stride)
		outputRows(got, a, v, n, width, stride)
		if i := sameBitsOrNaN(got, want); i >= 0 {
			t.Fatalf("n=%d width=%d α=%d stride=%d shift=%d: element %d = %v, want %v",
				n, width, alpha, stride, sh, i, got[i], want[i])
		}
	})
}

// checkEWMDiag runs ewmDiag (the AVX2 kernel on the largest multiple of 8
// elements, the Go loop on the tail) and ewmDiagGo on copies of v and
// fails on the first element whose bits differ, NaN equal to NaN.
func checkEWMDiag(t *testing.T, v, w, x []float32) {
	t.Helper()
	got, want := append([]float32(nil), v...), append([]float32(nil), v...)
	ewmDiag(got, w, x)
	ewmDiagGo(want, w, x)
	if i := sameBitsOrNaN(got, want); i >= 0 {
		t.Fatalf("n=%d elem %d: v=%v w=%v x=%v: kernel %v, Go %v", len(w), i, v[i], w[i], x[i], got[i], want[i])
	}
}

// The AVX2 diagonal EWM must match its Go loop bit for bit (NaN equal to
// NaN) at every length from 0 to 80 (the 32-element steps, the 8-element
// steps and the Go tail), with ±0, subnormal, ±Inf and NaN values in v,
// ŵ and x̂, and planted ±0 ŵ over ±Inf x̂, which must leave v untouched.
func TestEWMDiagMatchesGo(t *testing.T) {
	if !cpufeat.HasAVX2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(59))
	r := func() byte { return byte(rng.Intn(256)) }
	for n := 0; n <= 80; n++ {
		for trial := 0; trial < 4; trial++ {
			v, w, x := make([]float32, n), make([]float32, n), make([]float32, n)
			for i := range w {
				v[i], w[i], x[i] = fuzzFloat(r(), r(), r(), true), fuzzFloat(r(), r(), r(), true), fuzzFloat(r(), r(), r(), true)
				if i%5 == trial {
					w[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
					x[i] = float32(math.Inf(rng.Intn(2)*2 - 1))
					v[i] = rng.Float32()
				}
			}
			checkEWMDiag(t, v, w, x)
		}
	}
}

// FuzzEWMDiagAVX2 compares the diagonal EWM kernel path with its Go loop
// on fuzzed v, ŵ and x̂ of lengths 0–80.
func FuzzEWMDiagAVX2(f *testing.F) {
	if !cpufeat.HasAVX2 {
		f.Skip("no AVX2")
	}
	f.Add(uint8(41), []byte{0, 9, 4, 4, 200, 7, 5, 13, 1, 6, 80, 3})
	f.Add(uint8(80), []byte{1, 0, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		l := int(n) % 81
		checkEWMDiag(t, fuzzFloats(data, l, 0, true), fuzzFloats(data, l, l, true), fuzzFloats(data, l, 2*l, true))
	})
}

// BenchmarkEWMDiag times the diagonal EWM on one depthwise panel (α = 8,
// cb = 32); the go variant clears cpufeat.HasAVX2, so it times the Go
// loop.
func BenchmarkEWMDiag(b *testing.B) {
	const n = 8 * 32
	v, w, x := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range w {
		w[i], x[i] = float32(i%7-3)*0.25, float32(i%5)-2
	}
	for _, path := range []string{"kernel", "go"} {
		b.Run(path, func(b *testing.B) {
			if path == "go" {
				forceGoKernels(b)
			}
			for i := 0; i < b.N; i++ {
				ewmDiag(v, w, x)
			}
		})
	}
}
