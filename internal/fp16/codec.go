package fp16

// Table-driven bulk conversion kernels.
//
// The scalar FromFloat32/ToFloat32 pair in fp16.go is the rounding
// *specification*: a branchy, obviously-correct implementation of IEEE
// binary16 conversion with round-to-nearest-even. It stays in the tree as
// the oracle for the equivalence tests. The kernels here implement the
// exact same mapping with tables so the hot loops (the Ŵ-cache fill, the
// X-gather and the SMEM-rounding step of ExecuteHalf) convert whole rows
// per call instead of paying a branch tree per element:
//
//   - Decoding uses a 65536-entry float32 LUT (256 KiB): every binary16
//     pattern maps to exactly one float32, so ToFloat32 becomes a single
//     indexed load. The LUT is built lazily, once, on first use — an
//     FP32-only process never pays the 256 KiB or the build. On a host
//     with F16C and AVX2 an F16C kernel (round_amd64.s) decodes 8 halves
//     per instruction group and the LUT only the last len mod 8; the
//     kernel restores the signalling NaNs that VCVTPH2PS quiets. The
//     rounding kernels instead decode arithmetically (decodeBits): their
//     half patterns are data-dependent transform outputs, where the
//     indexed load misses L1 and a handful of ALU ops wins.
//   - Encoding uses the Giesen-style class-table scheme: the 9-bit
//     sign+exponent field of the float32 picks a base pattern, a mantissa
//     shift and an implicit-bit OR from three 512-entry tables, followed by
//     a two-instruction round-to-nearest-even fixup on the dropped bits.
//     Inf/NaN inputs take one (almost never taken) branch so NaN payloads
//     survive exactly as the scalar encoder preserves them.
//
// Both kernels are bit-for-bit identical to the scalar pair across the
// full input domain; codec_test.go proves decode exhaustively and encode
// by exhaustive half-domain round-trip plus midpoint/tie sweeps and fuzz.
// The decode kernel matches the oracle on all 65536 patterns and the LUT
// loop at every length and alignment (decode_test.go). The fused
// encode+decode, RoundSlice, also has an F16C kernel (round_amd64.s) that
// matches the scalar round trip on every float32 pattern
// (roundsweep_test.go).

import (
	"math"
	"sync"
	"sync/atomic"

	"winrs/internal/cpufeat"
)

// decodeLUTBuilds counts decode-LUT constructions; the laziness tests
// assert it is 0 at process start and exactly 1 after concurrent use.
var decodeLUTBuilds atomic.Int32

var (
	decodeOnce sync.Once
	decodeLUT  *[1 << 16]float32
)

// decodeTable returns the binary16 → float32 LUT, building it on first
// use from the scalar oracle (so the table *is* ToFloat32 by
// construction; the exhaustive test pins the equality against drift).
func decodeTable() *[1 << 16]float32 {
	decodeOnce.Do(func() {
		decodeLUTBuilds.Add(1)
		t := new([1 << 16]float32)
		for i := range t {
			t[i] = ToFloat32(Bits(i))
		}
		decodeLUT = t
	})
	return decodeLUT
}

// Encode class tables, indexed by the 9-bit sign+exponent field of the
// float32 (b >> 23). encBase holds the sign/exponent bits of the result,
// encShift the right-shift applied to the (implicit-bit-extended)
// mantissa, and encOr the implicit leading one for classes that land in
// the binary16 subnormal range. Classes that must not round (underflow,
// overflow, zero) use shift 24 with no implicit bit: the shifted mantissa
// is 0 and the remainder (< 2^23) can never reach the 2^23 rounding
// half-point.
var (
	encodeOnce sync.Once
	encBase    *[512]uint16
	encShift   *[512]uint8
	encOr      *[512]uint32
)

func encodeTables() (*[512]uint16, *[512]uint8, *[512]uint32) {
	encodeOnce.Do(func() {
		base := new([512]uint16)
		shift := new([512]uint8)
		or := new([512]uint32)
		for c := 0; c < 512; c++ {
			exp := c & 0xFF            // float32 biased exponent
			sign := uint16(c>>8) << 15 // sign bit in binary16 position
			e := exp - 127             // unbiased exponent
			switch {
			case exp == 0 || e < -25:
				// Signed zero, float32 subnormals, and everything below
				// half the smallest binary16 subnormal: signed zero.
				base[c] = sign
				shift[c] = 24
			case e <= -15:
				// Binary16 subnormal range (e in [-25, -15]): the implicit
				// one becomes explicit and the significand is shifted so
				// the result unit is 2^-24, exactly as the scalar encoder
				// computes hf = (frac|0x800000) >> (-e-1).
				base[c] = sign
				shift[c] = uint8(-e - 1)
				or[c] = 0x800000
			case e <= 15:
				// Normal range: exponent re-biased, 13 mantissa bits
				// dropped with RNE.
				base[c] = sign | uint16(e+expBias)<<10
				shift[c] = 13
			default:
				// e > 15 (including the float32 Inf/NaN class, whose NaNs
				// are intercepted before the tables): overflow to ±Inf.
				base[c] = sign | expMask
				shift[c] = 24
			}
		}
		encBase, encShift, encOr = base, shift, or
	})
	return encBase, encShift, encOr
}

// DecodeSlice converts binary16 src into float32 dst element-wise,
// bit-identical to the scalar ToFloat32. len(dst) must equal len(src). On
// a host with F16C and AVX2 the F16C kernel decodes the largest multiple
// of 8 elements and decodeSliceGo the rest.
func DecodeSlice(dst []float32, src []Bits) {
	if len(dst) != len(src) {
		panic("fp16: DecodeSlice length mismatch")
	}
	if n8 := len(src) &^ 7; cpufeat.HasF16C && cpufeat.HasAVX2 && n8 > 0 {
		decodeF16C(&dst[0], &src[0], n8)
		dst, src = dst[n8:], src[n8:]
	}
	decodeSliceGo(dst, src)
}

// decodeSliceGo is the LUT loop: the portable DecodeSlice, the F16C
// kernel's tail and its oracle. An empty slice never builds the table.
func decodeSliceGo(dst []float32, src []Bits) {
	if len(src) == 0 {
		return
	}
	lut := decodeTable()
	dst = dst[:len(src)]
	for i, h := range src {
		dst[i] = lut[h]
	}
}

// EncodeSlice converts float32 src into binary16 dst element-wise with
// round-to-nearest-even, bit-identical to the scalar FromFloat32
// (including NaN payload truncation and overflow to ±Inf). len(dst) must
// equal len(src).
func EncodeSlice(dst []Bits, src []float32) {
	if len(dst) != len(src) {
		panic("fp16: EncodeSlice length mismatch")
	}
	base, shift, or := encodeTables()
	for i, v := range src {
		b := math.Float32bits(v)
		if b&0x7F800000 == 0x7F800000 { // Inf/NaN: same path as the oracle
			sign := uint16(b>>16) & signMask
			if frac := b & 0x7FFFFF; frac != 0 {
				dst[i] = Bits(sign | expMask | 0x0200 | uint16(frac>>13))
			} else {
				dst[i] = Bits(sign | expMask)
			}
			continue
		}
		c := b >> 23
		m := b&0x7FFFFF | or[c]
		sh := uint32(shift[c])
		h := uint32(base[c]) + m>>sh
		// RNE fixup: round up when the dropped bits exceed half an ULP, or
		// equal it and the kept pattern is odd. rem+(h&1) > half folds both
		// conditions into one compare; the mantissa-overflow carry bumps
		// the exponent naturally, exactly like the scalar encoder.
		rem := m & (1<<sh - 1)
		if rem+(h&1) > 1<<(sh-1) {
			h++
		}
		dst[i] = Bits(h)
	}
}

// decodeBits is the arithmetic form of ToFloat32: normals re-bias in pure
// bit operations, subnormals reconstruct as the exact product frac·2⁻²⁴
// (both factors and the result are exactly representable), Inf/NaN shift
// the payload. Bit-identical to the scalar oracle and the LUT — the
// rounding kernels below use it instead of the 256 KiB decode table
// because their half patterns arrive data-dependent (transform outputs),
// where a per-element LUT load misses L1 while these few ALU ops stay in
// registers. The equivalence is pinned by the exhaustive decode test plus
// the RoundSlice scalar round-trip sweeps.
func decodeBits(h uint32) float32 {
	sign := (h & 0x8000) << 16
	exp := h >> 10 & 0x1F
	frac := h & 0x3FF
	switch {
	case exp == 0x1F: // Inf / NaN
		return math.Float32frombits(sign | 0x7F800000 | frac<<13)
	case exp == 0: // signed zero / subnormal
		if frac == 0 {
			return math.Float32frombits(sign)
		}
		return math.Float32frombits(math.Float32bits(float32(frac)*0x1p-24) | sign)
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | frac<<13)
	}
}

// RoundSlice rounds every element of vs to its nearest binary16 value in
// place — the fused encode+decode used for the "SMEM storage" rounding
// step, bit-identical to ToFloat32(FromFloat32(v)) per element. On an
// F16C host the F16C kernel rounds the largest multiple of 8 elements and
// roundSliceGo the rest.
func RoundSlice(vs []float32) {
	if n8 := len(vs) &^ 7; cpufeat.HasF16C && n8 > 0 {
		roundF16C(&vs[0], n8)
		vs = vs[n8:]
	}
	roundSliceGo(vs)
}

// roundSliceGo is the portable RoundSlice and the F16C kernel's oracle.
func roundSliceGo(vs []float32) {
	base, shift, or := encodeTables()
	for i, v := range vs {
		b := math.Float32bits(v)
		if b&0x7F800000 == 0x7F800000 {
			h := uint32(b>>16) & 0x8000
			if frac := b & 0x7FFFFF; frac != 0 {
				h |= uint32(expMask) | 0x0200 | frac>>13
			} else {
				h |= uint32(expMask)
			}
			vs[i] = decodeBits(h)
			continue
		}
		c := b >> 23
		m := b&0x7FFFFF | or[c]
		sh := uint32(shift[c])
		h := uint32(base[c]) + m>>sh
		rem := m & (1<<sh - 1)
		if rem+(h&1) > 1<<(sh-1) {
			h++
		}
		vs[i] = decodeBits(h)
	}
}

// RoundInto writes the nearest binary16 value of every src element into
// dst: the copy, then RoundSlice. len(dst) must equal len(src); dst and
// src may alias only exactly.
func RoundInto(dst, src []float32) {
	if len(dst) != len(src) {
		panic("fp16: RoundInto length mismatch")
	}
	copy(dst, src)
	RoundSlice(dst)
}
