package core

import (
	"math"
	"math/rand"
	"testing"

	"winrs/internal/cpufeat"
)

// forceGoKernels clears cpufeat.HasAVX2 and cpufeat.HasF16C for the
// duration of the test, so the EWM kernel selection, the output row, the
// bucket reduce and the binary16 rounding run their Go loops on an
// AVX2/F16C host. Like forceEWM it is a test-only hook.
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
				row[b] += wv * xv
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

// The AVX2 output row must match outputRowGo bit for bit (NaN equal to
// NaN) at every row length from 0 to 80, α from 1 to 16 terms, strides
// beyond the row, unaligned starts, and ±0, subnormal, 1e±30, ±Inf and
// NaN operands.
func FuzzOutputRowAVX2(f *testing.F) {
	f.Add([]byte{0x10, 0x40, 0x80, 0x01, 0x3c, 0x07}, uint8(17), uint8(8), uint8(0), uint8(1))
	f.Add([]byte{0x06, 0x22, 0x99, 0x07}, uint8(80), uint8(16), uint8(5), uint8(0))
	f.Add([]byte{0x00, 0x02, 0x03}, uint8(40), uint8(3), uint8(2), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, nB, alphaB, padB, shift uint8) {
		if !cpufeat.HasAVX2 {
			t.Skip("no AVX2")
		}
		n, alpha, sh := int(nB%81), 1+int(alphaB%16), int(shift%8)
		stride := n + int(padB%9)
		cs := fuzzFloats(data, sh+alpha, 0, true)[sh:]
		v := fuzzFloats(data, sh+(alpha-1)*stride+n, 5, true)[sh:]
		want := make([]float32, sh+n)[sh:]
		got := fuzzFloats(data, sh+n, 11, true)[sh:] // stale contents
		outputRowGo(want, cs, v, stride)
		outputRow(got, cs, v, stride)
		if i := sameBitsOrNaN(got, want); i >= 0 {
			t.Fatalf("n=%d α=%d stride=%d shift=%d: element %d = %v, want %v",
				n, alpha, stride, sh, i, got[i], want[i])
		}
	})
}
