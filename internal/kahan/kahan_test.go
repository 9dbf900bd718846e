package kahan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Classic stress: summing many small values onto a large one. Naive float32
// summation loses them entirely; Kahan keeps nearly full precision.
func TestSum32BeatsNaive(t *testing.T) {
	const n = 1 << 20
	const small = float32(1e-4)
	var k Sum32
	k.Add(1e4)
	naive := float32(1e4)
	for i := 0; i < n; i++ {
		k.Add(small)
		naive += small
	}
	exact := 1e4 + float64(n)*float64(small)
	errK := math.Abs(float64(k.Value())-exact) / exact
	errN := math.Abs(float64(naive)-exact) / exact
	if errK > 1e-6 {
		t.Errorf("Kahan error %v too large", errK)
	}
	if errN < 10*errK {
		t.Errorf("expected naive (%v) to be much worse than Kahan (%v)", errN, errK)
	}
}

func TestSum64(t *testing.T) {
	var k Sum64
	for i := 0; i < 10; i++ {
		k.Add(0.1)
	}
	if math.Abs(k.Value()-1.0) > 1e-15 {
		t.Errorf("sum of ten 0.1 = %v, want 1.0 within 1e-15", k.Value())
	}
	k.Reset()
	if k.Value() != 0 {
		t.Error("Reset should zero the accumulator")
	}
}

// Neumaier handles the case Kahan famously fails: addend magnitude exceeds
// the running sum (e.g. [1, 1e30, 1, -1e30] in float32 terms).
func TestNeumaierLargeAddend(t *testing.T) {
	var n Neumaier32
	for _, v := range []float32{1, 1e30, 1, -1e30} {
		n.Add(v)
	}
	if got := n.Value(); got != 2 {
		t.Errorf("Neumaier sum = %v, want 2", got)
	}
}

func TestSumSliceHelpers(t *testing.T) {
	xs32 := []float32{0.25, 0.5, 0.125, -0.375}
	if got := SumSlice32(xs32); got != 0.5 {
		t.Errorf("SumSlice32 = %v, want 0.5", got)
	}
	xs64 := []float64{1, 2, 3, 4}
	if got := SumSlice64(xs64); got != 10 {
		t.Errorf("SumSlice64 = %v, want 10", got)
	}
	if SumSlice32(nil) != 0 || SumSlice64(nil) != 0 {
		t.Error("empty slice should sum to 0")
	}
}

// Property: for exactly representable inputs (small integers) Kahan matches
// exact integer summation.
func TestSum32ExactOnIntegers(t *testing.T) {
	f := func(vals []int8) bool {
		var k Sum32
		exact := 0
		for _, v := range vals {
			k.Add(float32(v))
			exact += int(v)
		}
		return k.Value() == float32(exact)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Kahan float32 summation error vs float64 reference stays within
// a few ULP even for thousands of random terms.
func TestSum32ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1000 + rng.Intn(4000)
		var k Sum32
		var ref float64
		for i := 0; i < n; i++ {
			v := float32(rng.Float64()*2 - 1)
			k.Add(v)
			ref += float64(v)
		}
		if math.Abs(float64(k.Value())-ref) > 1e-4 {
			t.Fatalf("trial %d: kahan %v vs ref %v", trial, k.Value(), ref)
		}
	}
}

func TestReduceBuckets(t *testing.T) {
	const z, n = 8, 64
	buckets := make([][]float32, z)
	want := make([]float64, n)
	for zi := range buckets {
		buckets[zi] = make([]float32, n)
		for i := range buckets[zi] {
			v := float32(zi+1) * float32(i) * 0.25
			buckets[zi][i] = v
			want[i] += float64(v)
		}
	}
	dst := make([]float32, n)
	ReduceBuckets(dst, buckets)
	for i := range dst {
		if math.Abs(float64(dst[i])-want[i]) > 1e-3 {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	naive := make([]float32, n)
	ReduceBucketsNaive(naive, buckets)
	for i := range naive {
		if math.Abs(float64(naive[i])-want[i]) > 1e-2 {
			t.Fatalf("naive dst[%d] = %v, want %v", i, naive[i], want[i])
		}
	}
}

func TestReduceBucketsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched bucket length")
		}
	}()
	ReduceBuckets(make([]float32, 4), [][]float32{make([]float32, 3)})
}

// The bucket reduction must equal a Sum32 accumulator per element, bit
// for bit, over the whole slice and over any split into disjoint ranges.
func TestReduceBucketsRangeMatchesSum32(t *testing.T) {
	const z, n = 5, 700
	rng := rand.New(rand.NewSource(3))
	buckets := make([][]float32, z)
	for zi := range buckets {
		buckets[zi] = make([]float32, n)
		for i := range buckets[zi] {
			buckets[zi][i] = float32(rng.NormFloat64()) * float32(math.Pow(10, float64(rng.Intn(9)-4)))
		}
	}
	want := make([]float32, n)
	for i := range want {
		var k Sum32
		for _, b := range buckets {
			k.Add(b[i])
		}
		want[i] = k.Value()
	}
	whole := make([]float32, n)
	ReduceBuckets(whole, buckets)
	for i := range want {
		if math.Float32bits(whole[i]) != math.Float32bits(want[i]) {
			t.Fatalf("whole: dst[%d] = %v, want %v", i, whole[i], want[i])
		}
	}
	for _, step := range []int{1, 7, 64, 300, n} {
		got := make([]float32, n)
		for lo := 0; lo < n; lo += step {
			ReduceBucketsRange(got, buckets, lo, min(lo+step, n))
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("step %d: dst[%d] = %v, want %v", step, i, got[i], want[i])
			}
		}
	}
}

// Kahan reduction must be at least as accurate as naive reduction when
// summing many buckets of tiny values onto one large bucket.
func TestReduceBucketsAccuracyAblation(t *testing.T) {
	const z, n = 512, 16
	buckets := make([][]float32, z)
	for zi := range buckets {
		buckets[zi] = make([]float32, n)
		for i := range buckets[zi] {
			if zi == 0 {
				buckets[zi][i] = 4096
			} else {
				buckets[zi][i] = 1.0 / 1024
			}
		}
	}
	exact := 4096 + float64(z-1)/1024
	compensated := make([]float32, n)
	naive := make([]float32, n)
	ReduceBuckets(compensated, buckets)
	ReduceBucketsNaive(naive, buckets)
	errC := math.Abs(float64(compensated[0]) - exact)
	errN := math.Abs(float64(naive[0]) - exact)
	if errC > errN {
		t.Errorf("Kahan reduction error %v exceeds naive %v", errC, errN)
	}
	if errC > 1e-3 {
		t.Errorf("Kahan reduction error %v too large", errC)
	}
}

func BenchmarkSum32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var k Sum32
		for j := 0; j < 1024; j++ {
			k.Add(float32(j) * 0.001)
		}
		_ = k.Value()
	}
}

func BenchmarkReduceBuckets(b *testing.B) {
	const z, n = 16, 4096
	buckets := make([][]float32, z)
	for zi := range buckets {
		buckets[zi] = make([]float32, n)
	}
	dst := make([]float32, n)
	b.SetBytes(int64(z * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReduceBuckets(dst, buckets)
	}
}
