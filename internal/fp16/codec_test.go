package fp16

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
)

// TestMain asserts the decode LUT is NOT built at package init: an
// FP32-only process importing fp16 must pay neither the 256 KiB nor the
// construction loop. It runs before any test can touch the codec, so a
// non-zero counter here can only come from an init-time build.
func TestMain(m *testing.M) {
	if n := decodeLUTBuilds.Load(); n != 0 {
		fmt.Fprintf(os.Stderr, "fp16: decode LUT built %d times at init, want 0 (must be lazy)\n", n)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// The LUT must be built exactly once even under concurrent first use. 19
// elements leave a 3-element tail, so the goroutines reach the table on
// an F16C host too, where the kernel decodes the first 16.
func TestDecodeLUTBuiltLazilyOnce(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float32, 19)
			src := make([]Bits, 19)
			for i := range src {
				src[i] = Bits(i * 257)
			}
			for iter := 0; iter < 100; iter++ {
				DecodeSlice(dst, src)
			}
		}()
	}
	wg.Wait()
	if n := decodeLUTBuilds.Load(); n != 1 {
		t.Fatalf("decode LUT built %d times, want exactly 1", n)
	}
}

// sameF32 compares float32 values bit-for-bit (so NaN payloads and zero
// signs count).
func sameF32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b)
}

// Exhaustive decode equivalence: every one of the 65536 binary16
// patterns — all NaN payloads, ±Inf, every subnormal — must decode
// through the LUT to the exact bits the scalar oracle produces.
func TestDecodeSliceExhaustive(t *testing.T) {
	src := make([]Bits, 1<<16)
	for i := range src {
		src[i] = Bits(i)
	}
	dst := make([]float32, len(src))
	DecodeSlice(dst, src)
	for i, got := range dst {
		want := ToFloat32(Bits(i))
		if !sameF32(got, want) {
			t.Fatalf("DecodeSlice(%#04x) = %x, oracle ToFloat32 = %x",
				i, math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// encodeOne runs the table-driven encoder on a single value.
func encodeOne(v float32) Bits {
	var dst [1]Bits
	EncodeSlice(dst[:], []float32{v})
	return dst[0]
}

// checkEncode compares the table encoder against the scalar oracle for
// one value.
func checkEncode(t *testing.T, v float32) {
	t.Helper()
	if got, want := encodeOne(v), FromFloat32(v); got != want {
		t.Fatalf("EncodeSlice(%x = %v) = %#04x, oracle FromFloat32 = %#04x",
			math.Float32bits(v), v, got, want)
	}
}

// Encode differential sweep over the half domain: every binary16 value
// (decoded exactly to float32) must re-encode to the scalar oracle's
// pattern, and so must the float32 values straddling each rounding
// boundary: the exact midpoint between every pair of adjacent halves and
// its float32 neighbours on both sides — the RNE tie cases, subnormal
// boundaries and the 65504/65520 overflow edge all arise here.
func TestEncodeSliceBoundarySweep(t *testing.T) {
	for i := 0; i <= 0xFFFF; i++ {
		h := Bits(i)
		v := ToFloat32(h)
		checkEncode(t, v)
		if IsNaN(h) || IsInf(h, 0) {
			continue
		}
		// Midpoint to the next-larger-magnitude half (same sign).
		next := h + 1
		if !IsFinite(next) {
			// Midpoint between max finite and the overflow threshold.
			for _, edge := range []float32{65520, -65520} {
				checkEncode(t, edge)
				checkEncode(t, math.Nextafter32(edge, 0))
				checkEncode(t, math.Nextafter32(edge, float32(math.Inf(1))))
				checkEncode(t, math.Nextafter32(edge, float32(math.Inf(-1))))
			}
			continue
		}
		nv := ToFloat32(next)
		mid := float32((float64(v) + float64(nv)) / 2) // exact in float32
		checkEncode(t, mid)
		checkEncode(t, math.Nextafter32(mid, 0))
		checkEncode(t, math.Nextafter32(mid, float32(math.Inf(1))))
	}
}

// Encode differential fuzz over random float32 bit patterns, including
// NaN payloads, float32 subnormals and the full exponent range.
func TestEncodeSliceRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	const n = 1 << 20
	src := make([]float32, n)
	for i := range src {
		src[i] = math.Float32frombits(rng.Uint32())
	}
	dst := make([]Bits, n)
	EncodeSlice(dst, src)
	for i, got := range dst {
		if want := FromFloat32(src[i]); got != want {
			t.Fatalf("EncodeSlice(%x) = %#04x, oracle = %#04x",
				math.Float32bits(src[i]), got, want)
		}
	}
}

// RoundSlice must equal the scalar encode→decode round trip bit-for-bit.
func TestRoundSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 2049, 2051,
		65504, 65520, 1e-9, -1e-9, 6.103515625e-05, 5.960464477539063e-08,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for i := 0; i < 1<<16; i++ {
		vals = append(vals, math.Float32frombits(rng.Uint32()))
	}
	got := append([]float32(nil), vals...)
	RoundSlice(got)
	for i, v := range vals {
		want := ToFloat32(FromFloat32(v))
		if !sameF32(got[i], want) {
			t.Fatalf("RoundSlice(%x) = %x, scalar round trip = %x",
				math.Float32bits(v), math.Float32bits(got[i]), math.Float32bits(want))
		}
	}
}

func TestSliceKernelLengthMismatchPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: length mismatch did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("DecodeSlice", func() { DecodeSlice(make([]float32, 2), make([]Bits, 3)) })
	mustPanic("EncodeSlice", func() { EncodeSlice(make([]Bits, 3), make([]float32, 2)) })
	mustPanic("RoundInto", func() { RoundInto(make([]float32, 2), make([]float32, 3)) })
}

// The allocating wrappers must stay equivalent to the kernels.
func TestSliceWrappersMatchKernels(t *testing.T) {
	src32 := []float32{0, 1, -2.5, 65504, 1e-8, float32(math.NaN())}
	h := SliceFromFloat32(src32)
	for i, v := range src32 {
		if h[i] != FromFloat32(v) {
			t.Fatalf("SliceFromFloat32[%d] = %#04x, want %#04x", i, h[i], FromFloat32(v))
		}
	}
	f := SliceToFloat32(h)
	for i, hb := range h {
		if !sameF32(f[i], ToFloat32(hb)) {
			t.Fatalf("SliceToFloat32[%d] mismatch", i)
		}
	}
}

// BenchmarkDecodeSliceLUT runs the LUT loop, the portable DecodeSlice.
func BenchmarkDecodeSliceLUT(b *testing.B) {
	src := make([]Bits, 4096)
	for i := range src {
		src[i] = Bits(i * 13)
	}
	dst := make([]float32, len(src))
	b.SetBytes(int64(len(src) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSliceGo(dst, src)
	}
}

// BenchmarkDecodeSliceF16C runs DecodeSlice as the host selects it: the
// F16C kernel on a host with F16C and AVX2.
func BenchmarkDecodeSliceF16C(b *testing.B) {
	src := make([]Bits, 4096)
	for i := range src {
		src[i] = Bits(i * 13)
	}
	dst := make([]float32, len(src))
	b.SetBytes(int64(len(src) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeSlice(dst, src)
	}
}

// BenchmarkDecodeSliceBits runs the arithmetic decode of the rounding
// kernels over the same halves.
func BenchmarkDecodeSliceBits(b *testing.B) {
	src := make([]Bits, 4096)
	for i := range src {
		src[i] = Bits(i * 13)
	}
	dst := make([]float32, len(src))
	b.SetBytes(int64(len(src) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, h := range src {
			dst[j] = decodeBits(uint32(h))
		}
	}
}

func BenchmarkDecodeSliceScalar(b *testing.B) {
	src := make([]Bits, 4096)
	for i := range src {
		src[i] = Bits(i * 13)
	}
	dst := make([]float32, len(src))
	b.SetBytes(int64(len(src) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, h := range src {
			dst[j] = ToFloat32(h)
		}
	}
}

func BenchmarkEncodeSliceTable(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]float32, 4096)
	for i := range src {
		src[i] = rng.Float32()*4 - 2
	}
	dst := make([]Bits, len(src))
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeSlice(dst, src)
	}
}

func BenchmarkEncodeSliceScalar(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]float32, 4096)
	for i := range src {
		src[i] = rng.Float32()*4 - 2
	}
	dst := make([]Bits, len(src))
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range src {
			dst[j] = FromFloat32(v)
		}
	}
}

func BenchmarkRoundSliceTable(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	vs := make([]float32, 4096)
	for i := range vs {
		vs[i] = rng.Float32()*4 - 2
	}
	b.SetBytes(int64(len(vs) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RoundSlice(vs)
	}
}

func BenchmarkRoundSliceScalar(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	vs := make([]float32, 4096)
	for i := range vs {
		vs[i] = rng.Float32()*4 - 2
	}
	b.SetBytes(int64(len(vs) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range vs {
			vs[j] = ToFloat32(FromFloat32(v))
		}
	}
}

// RoundInto is RoundSlice into a separate destination: same scalar
// round-trip oracle, and the source must come through untouched.
func TestRoundIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 2049, 2051,
		65504, 65520, 1e-9, -1e-9, 6.103515625e-05, 5.960464477539063e-08,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for i := 0; i < 1<<16; i++ {
		vals = append(vals, math.Float32frombits(rng.Uint32()))
	}
	src := append([]float32(nil), vals...)
	got := make([]float32, len(vals))
	RoundInto(got, src)
	for i, v := range vals {
		if !sameF32(src[i], v) {
			t.Fatalf("RoundInto mutated src[%d]: %x -> %x",
				i, math.Float32bits(v), math.Float32bits(src[i]))
		}
		want := ToFloat32(FromFloat32(v))
		if !sameF32(got[i], want) {
			t.Fatalf("RoundInto(%x) = %x, scalar round trip = %x",
				math.Float32bits(v), math.Float32bits(got[i]), math.Float32bits(want))
		}
	}
	// Exact aliasing is allowed and must equal RoundSlice.
	alias := append([]float32(nil), vals...)
	RoundInto(alias, alias)
	for i := range alias {
		if !sameF32(alias[i], got[i]) {
			t.Fatalf("aliased RoundInto differs at %d", i)
		}
	}
}

// Exhaustive decodeBits equivalence: the arithmetic decode behind the
// rounding kernels must match the scalar oracle on all 65536 patterns.
func TestDecodeBitsMatchesScalarExhaustive(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		if got, want := decodeBits(uint32(i)), ToFloat32(Bits(i)); !sameF32(got, want) {
			t.Fatalf("decodeBits(%#04x) = %x, want %x",
				i, math.Float32bits(got), math.Float32bits(want))
		}
	}
}
