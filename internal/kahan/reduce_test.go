package kahan

import (
	"math"
	"testing"

	"winrs/internal/cpufeat"
)

// fuzzFloat maps three fuzz bytes to a float32: ±0, a subnormal, ±Inf,
// NaN, or ±(1 + frac/256)·10^k with k in [−30, 30].
func fuzzFloat(class, exp, frac byte) float32 {
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
		return sign * float32(math.Inf(1))
	case 3:
		return float32(math.NaN())
	}
	return sign * (1 + float32(frac)/256) * float32(math.Pow(10, float64(int(exp)%61-30)))
}

// The AVX2 reduce must match reduceRangeGo bit for bit (NaN equal to NaN)
// for 1–6 buckets, range lengths 0–80 (every tail of the 8-lane loop) at
// offsets 0–15, unaligned bucket and dst starts, and ±0, subnormal,
// 1e±30, ±Inf and NaN addends; elements outside [lo, hi) stay untouched.
func FuzzReduceAVX2(f *testing.F) {
	f.Add([]byte{0x10, 0x40, 0x80, 0x01, 0x3c, 0x07}, uint8(2), uint8(3), uint8(40), uint8(1))
	f.Add([]byte{0x0c, 0x22, 0x99, 0x21}, uint8(5), uint8(0), uint8(80), uint8(0))
	f.Add([]byte{0x00, 0x02, 0x03, 0x05}, uint8(1), uint8(9), uint8(9), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, zB, loB, nB, shift uint8) {
		if !cpufeat.HasAVX2 {
			t.Skip("no AVX2")
		}
		z, lo, n, sh := 1+int(zB%6), int(loB%16), int(nB%81), int(shift%8)
		hi := lo + n
		value := func(i int) float32 {
			if len(data) == 0 {
				return 0
			}
			at := func(j int) byte { return data[j%len(data)] + byte(j/len(data)) }
			return fuzzFloat(at(3*i), at(3*i+1), at(3*i+2))
		}
		buckets := make([][]float32, z)
		for k := range buckets {
			b := make([]float32, sh+hi+3)[sh:]
			for i := range b {
				b[i] = value(k*len(b) + i)
			}
			buckets[k] = b
		}
		want := make([]float32, sh+hi+3)[sh:]
		for i := range want {
			want[i] = float32(i) + 0.5 // sentinel outside [lo, hi)
		}
		got := append(make([]float32, sh, sh+len(want)), want...)[sh:]
		reduceRangeGo(want, buckets, lo, hi)
		ReduceBucketsRange(got, buckets, lo, hi)
		for i := range want {
			g, w := got[i], want[i]
			if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
				t.Fatalf("z=%d lo=%d hi=%d shift=%d: element %d = %v, want %v", z, lo, hi, sh, i, g, w)
			}
		}
	})
}
