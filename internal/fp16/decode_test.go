package fp16

import (
	"math"
	"math/rand"
	"testing"

	"winrs/internal/cpufeat"
)

// decodeStress returns the halves the F16C decode kernel must get right:
// every signalling NaN of both signs (the kernel's quiet-bit fix-up),
// every quiet NaN, ±Inf, ±0, every subnormal of both signs and random
// halves, shuffled so that each class meets every lane of a register.
func decodeStress() []Bits {
	var hs []Bits
	for _, sign := range []Bits{0, signMask} {
		for f := Bits(1); f <= 0x3FF; f++ {
			hs = append(hs, sign|expMask|f, sign|f) // NaNs, subnormals
		}
		hs = append(hs, sign|expMask, sign) // ±Inf, ±0
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1024; i++ {
		hs = append(hs, Bits(rng.Uint32()))
	}
	rng.Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
	return hs
}

// The F16C decode kernel, with its Go LUT tail, must equal the LUT loop
// bit for bit at every length from 0 to 40 (every tail of the 8- and
// 32-lane loops) and every start offset 0–7, over the stress halves.
func TestDecodeF16CMatchesLUT(t *testing.T) {
	if !cpufeat.HasF16C || !cpufeat.HasAVX2 {
		t.Skip("no F16C and AVX2: DecodeSlice is the LUT loop")
	}
	hs := decodeStress()
	for off := 0; off < 8; off++ {
		src := make([]Bits, off+len(hs))
		copy(src[off:], hs)
		got := make([]float32, len(src))
		want := make([]float32, len(src))
		for n := 0; n <= 40; n++ {
			for w := off; w+n <= len(src); w += max(n, 1) {
				DecodeSlice(got[w:w+n], src[w:w+n])
				decodeSliceGo(want[w:w+n], src[w:w+n])
				for i := w; i < w+n; i++ {
					if !sameF32(got[i], want[i]) {
						t.Fatalf("offset %d length %d: half %#04x decodes to %#08x, LUT %#08x",
							off, n, src[i], math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// With F16C cleared DecodeSlice is the LUT loop alone, and it too must
// match the scalar oracle on all 65,536 halves.
func TestDecodeSliceExhaustiveNoF16C(t *testing.T) {
	f16c := cpufeat.HasF16C
	cpufeat.HasF16C = false
	defer func() { cpufeat.HasF16C = f16c }()
	TestDecodeSliceExhaustive(t)
}

// The F16C decode must match the LUT loop bit for bit at every length
// from 0 to 80 on unaligned slice starts, for arbitrary halves.
func FuzzDecodeSliceF16C(f *testing.F) {
	f.Add([]byte{0x01, 0x7c, 0xff, 0xfd, 0x00, 0x7e, 0x00, 0x7c}, uint8(40), uint8(1))
	f.Add([]byte{0x00, 0x80, 0x01, 0x00, 0xff, 0x83, 0x00, 0x3c, 0xff, 0x7b}, uint8(80), uint8(3))
	f.Add([]byte{0x55, 0xfc, 0x00, 0x00}, uint8(9), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, nB, shift uint8) {
		if !cpufeat.HasF16C || !cpufeat.HasAVX2 {
			t.Skip("no F16C and AVX2")
		}
		n, sh := int(nB%81), int(shift%8)
		src := make([]Bits, sh+n)
		for i := range src {
			var b Bits
			for k := 0; k < 2 && len(data) > 0; k++ {
				j := 2*i + k
				b |= Bits(data[j%len(data)]+byte(j/len(data))) << (8 * k)
			}
			src[i] = b
		}
		got := make([]float32, n)
		want := make([]float32, n)
		DecodeSlice(got, src[sh:])
		decodeSliceGo(want, src[sh:])
		for i := range want {
			if !sameF32(got[i], want[i]) {
				t.Fatalf("n=%d shift=%d: half %#04x decodes to %#08x, LUT %#08x", n, sh,
					src[sh+i], math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	})
}
