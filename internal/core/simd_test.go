package core

import (
	"math"
	"testing"

	"winrs/internal/cpufeat"
)

// forceGoKernels clears cpufeat.HasAVX2 for the duration of the test, so
// the EWM panel selection, the output row and the bucket reduce run their
// Go loops on an AVX2 host. Like forceEWM it is a test-only hook.
func forceGoKernels(t testing.TB) {
	t.Helper()
	prev := cpufeat.HasAVX2
	cpufeat.HasAVX2 = false
	t.Cleanup(func() { cpufeat.HasAVX2 = prev })
}

// The bitwise suites run once on whatever kernels the host selects; on an
// AVX2 host this runs them again on the Go loops, so both kernel paths are
// pinned to the same oracles.
func TestBitwiseSuitesGoKernels(t *testing.T) {
	if !cpufeat.HasAVX2 {
		t.Skip("no AVX2: the suites already ran the Go loops")
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

// The AVX2 EWM panel must match the Go 4×4 panel bit for bit at every
// I_C from 0 to 80 (every tail of the 8-lane loop), on unaligned slice
// starts, with planted ±0 Ŵ rows, subnormals and magnitudes up to 1e30.
// Operands stay finite and the prior accumulators are never −0, the
// invariants the executor keeps: the two panels skip zero Ŵ at different
// granularity, which is only invisible under them.
func FuzzEWMPanelAVX2(f *testing.F) {
	f.Add([]byte{0x10, 0x40, 0x80, 0x01, 0x3c, 0x07}, uint8(5), uint8(17), uint8(1), uint8(3))
	f.Add([]byte{0x04, 0x22, 0x99}, uint8(16), uint8(80), uint8(0), uint8(0))
	f.Add([]byte{0x00, 0x02, 0x03, 0x11, 0xff, 0x30}, uint8(9), uint8(40), uint8(7), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, ocB, icB, shift, zeroB uint8) {
		if !cpufeat.HasAVX2 {
			t.Skip("no AVX2")
		}
		oc, ic, sh := int(ocB%13), int(icB%81), int(shift%8)
		we := fuzzFloats(data, sh+oc, 0, false)[sh:]
		for a := range we {
			if int(zeroB)&(1<<(a%8)) != 0 {
				we[a] = float32(math.Copysign(0, float64(1-2*(a&1))))
			}
		}
		xe := fuzzFloats(data, sh+ic, 7, false)[sh:]
		prior := fuzzFloats(data, sh+oc*ic, 13, false)
		for i, v := range prior {
			if v == 0 {
				prior[i] = 0 // +0: accumulators never hold −0
			}
		}
		want := append([]float32(nil), prior...)[sh:]
		got := append([]float32(nil), prior...)[sh:]
		ewmPanel(want, we, xe, oc, ic)
		ewmPanelAVX2(got, we, xe, oc, ic)
		if i := sameBitsOrNaN(got, want); i >= 0 {
			t.Fatalf("oc=%d ic=%d shift=%d: element %d = %v, want %v", oc, ic, sh, i, got[i], want[i])
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
