package gemm

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/sched"
	"winrs/internal/tensor"
)

// TestMain builds the process-wide sched pool at width 4 before any test
// runs: the pool is sized at first use, and Run caps its effective width
// at runtime GOMAXPROCS, so the GOMAXPROCS=4 legs below are genuinely
// four-wide on a 1-CPU host while GOMAXPROCS=1 still takes the inline
// path.
func TestMain(m *testing.M) {
	prev := runtime.GOMAXPROCS(4)
	sched.Default()
	runtime.GOMAXPROCS(prev)
	os.Exit(m.Run())
}

func randCase(rng *rand.Rand) (conv.Params, *tensor.Float32, *tensor.Float32, *tensor.Float64) {
	p := conv.Params{
		N:  1 + rng.Intn(3),
		IH: 4 + rng.Intn(8),
		IW: 4 + rng.Intn(8),
		FH: 1 + rng.Intn(3),
		FW: 1 + rng.Intn(3),
		IC: 1 + rng.Intn(5),
		OC: 1 + rng.Intn(5),
		PH: rng.Intn(2),
		PW: rng.Intn(2),
	}
	x64 := tensor.NewFloat64(p.XShape())
	dy64 := tensor.NewFloat64(p.DYShape())
	for i := range x64.Data {
		x64.Data[i] = rng.Float64()*2 - 1
	}
	for i := range dy64.Data {
		dy64.Data[i] = rng.Float64()*2 - 1
	}
	want := conv.BackwardFilterDirect64(p, x64, dy64)
	return p, x64.ToFloat32(), dy64.ToFloat32(), want
}

func TestGemmSmall(t *testing.T) {
	// A (2x3) as K=2,M=3; B (2x2) K=2,N=2. C = Aᵀ·B (3x2).
	a := []float32{1, 2, 3, 4, 5, 6} // rows: [1 2 3], [4 5 6]
	b := []float32{7, 8, 9, 10}      // rows: [7 8], [9 10]
	c := make([]float32, 6)
	Gemm(a, b, c, 2, 3, 2)
	want := []float32{
		1*7 + 4*9, 1*8 + 4*10,
		2*7 + 5*9, 2*8 + 5*10,
		3*7 + 6*9, 3*8 + 6*10,
	}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
	// Accumulation: a second call must add on top.
	Gemm(a, b, c, 2, 3, 2)
	if c[0] != 2*want[0] {
		t.Error("Gemm must accumulate into C")
	}
}

func TestGemmDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Gemm(make([]float32, 5), make([]float32, 4), make([]float32, 4), 2, 2, 2)
}

func TestGemmLargerRandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	k, m, n := 37, 65, 23 // deliberately non-multiples of the block size
	a := make([]float32, k*m)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = rng.Float32()*2 - 1
	}
	for i := range b {
		b[i] = rng.Float32()*2 - 1
	}
	c := make([]float32, m*n)
	Gemm(a, b, c, k, m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += float64(a[kk*m+i]) * float64(b[kk*n+j])
			}
			if math.Abs(float64(c[i*n+j])-s) > 1e-4 {
				t.Fatalf("c[%d,%d] = %v, want %v", i, j, c[i*n+j], s)
			}
		}
	}
}

func TestAlgosMatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	algos := []struct {
		name string
		f    func(conv.Params, *tensor.Float32, *tensor.Float32) *tensor.Float32
	}{
		{"Algo0", Algo0},
		{"Algo1", Algo1},
		{"Algo3", Algo3},
	}
	for trial := 0; trial < 8; trial++ {
		p, x, dy, want := randCase(rng)
		for _, a := range algos {
			got := a.f(p, x, dy)
			if m := tensor.MARE(got, want); m > 1e-5 {
				t.Errorf("trial %d %s on %v: MARE %v", trial, a.name, p, m)
			}
		}
	}
}

// Algo0 and Algo3, which no backend wraps, must return the same bits at
// every pool width: Algo0's output channels and Algo3's K-slices are
// disjoint pool iterations, and Algo3 sums its partials in slice order.
func TestAlgosSameBitsAtEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := []conv.Params{
		{N: 2, IH: 9, IW: 11, FH: 3, FW: 3, IC: 3, OC: 5, PH: 1, PW: 1},
		{N: 1, IH: 6, IW: 6, FH: 5, FW: 5, IC: 2, OC: 2, PH: 2, PW: 2},
		{N: 3, IH: 20, IW: 20, FH: 3, FW: 3, IC: 4, OC: 6}, // K ≫ Algo3SplitK
	}
	algos := []struct {
		name string
		f    func(conv.Params, *tensor.Float32, *tensor.Float32) *tensor.Float32
	}{
		{"Algo0", Algo0},
		{"Algo3", Algo3},
	}
	at := func(procs int, f func() *tensor.Float32) *tensor.Float32 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return f()
	}
	for _, p := range cases {
		x := tensor.NewFloat32(p.XShape())
		dy := tensor.NewFloat32(p.DYShape())
		x.FillUniform(rng, -1, 1)
		dy.FillUniform(rng, -1, 1)
		for _, a := range algos {
			want := at(1, func() *tensor.Float32 { return a.f(p, x, dy) })
			got := at(4, func() *tensor.Float32 { return a.f(p, x, dy) })
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Errorf("%s on %v: procs 4 differs from procs 1 at %d: %v vs %v",
						a.name, p, i, got.Data[i], want.Data[i])
					break
				}
			}
		}
	}
}

// Accuracy ordering at long accumulation lengths: Algo0's pairwise
// accumulation must beat Algo1's sequential accumulation, mirroring the
// paper's Table 4 (Cu-Algo0 ~1e-7 vs Cu-Algo1 up to 1.78e-3).
func TestAlgo0BeatsAlgo1AtLongAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := conv.Params{N: 8, IH: 34, IW: 34, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1}
	x64 := tensor.NewFloat64(p.XShape())
	dy64 := tensor.NewFloat64(p.DYShape())
	// Uniform [0,1) inputs make every product positive, so sequential
	// accumulation error grows with length — the paper's setup.
	for i := range x64.Data {
		x64.Data[i] = rng.Float64()
	}
	for i := range dy64.Data {
		dy64.Data[i] = rng.Float64()
	}
	want := conv.BackwardFilterDirect64(p, x64, dy64)
	x, dy := x64.ToFloat32(), dy64.ToFloat32()
	m0 := tensor.MARE(Algo0(p, x, dy), want)
	m1 := tensor.MARE(Algo1(p, x, dy), want)
	if m0 > 5e-7 {
		t.Errorf("Algo0 MARE %v too large", m0)
	}
	if m1 <= m0 {
		t.Errorf("expected Algo1 (%v) to be less accurate than Algo0 (%v)", m1, m0)
	}
}

func TestWorkspaceAccounting(t *testing.T) {
	p := conv.Params{N: 32, IH: 224, IW: 224, FH: 3, FW: 3, IC: 64, OC: 64, PH: 1, PW: 1}
	// Algo1: chunked, K = 32·224·224 > 2^16 so chunk caps at 2^16 rows.
	wantAlgo1 := int64(1<<16) * 3 * 3 * 64 * 4
	if got := Algo1Workspace(p); got != wantAlgo1 {
		t.Errorf("Algo1Workspace = %d, want %d", got, wantAlgo1)
	}
	// Small case: K below the cap.
	ps := conv.Params{N: 1, IH: 6, IW: 6, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1}
	wantSmall := int64(1*6*6) * 3 * 3 * 2 * 4
	if got := Algo1Workspace(ps); got != wantSmall {
		t.Errorf("Algo1Workspace small = %d, want %d", got, wantSmall)
	}
	// Algo3: (split-1) ∇W copies.
	wantAlgo3 := int64(Algo3SplitK-1) * int64(64*3*3*64) * 4
	if got := Algo3Workspace(p); got != wantAlgo3 {
		t.Errorf("Algo3Workspace = %d, want %d", got, wantAlgo3)
	}
}

// The chunk boundary of Algo1 must not change results (other than rounding):
// exercise a case whose K exceeds one chunk via a temporarily small chunk.
func TestAlgo1MultiChunkConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := conv.Params{N: 2, IH: 10, IW: 10, FH: 2, FW: 2, IC: 3, OC: 3}
	x64 := tensor.NewFloat64(p.XShape())
	dy64 := tensor.NewFloat64(p.DYShape())
	for i := range x64.Data {
		x64.Data[i] = rng.Float64()
	}
	for i := range dy64.Data {
		dy64.Data[i] = rng.Float64()
	}
	want := conv.BackwardFilterDirect64(p, x64, dy64)
	got := Algo1(p, x64.ToFloat32(), dy64.ToFloat32())
	if m := tensor.MARE(got, want); m > 1e-5 {
		t.Errorf("MARE %v", m)
	}
}

func BenchmarkAlgo0(b *testing.B) {
	benchAlgo(b, Algo0)
}

func BenchmarkAlgo1(b *testing.B) {
	benchAlgo(b, Algo1)
}

func BenchmarkAlgo3(b *testing.B) {
	benchAlgo(b, Algo3)
}

func benchAlgo(b *testing.B, f func(conv.Params, *tensor.Float32, *tensor.Float32) *tensor.Float32) {
	p := conv.Params{N: 4, IH: 32, IW: 32, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1}
	rng := rand.New(rand.NewSource(1))
	x := tensor.NewFloat32(p.XShape())
	dy := tensor.NewFloat32(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	b.SetBytes(p.DataBytes32())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f(p, x, dy)
	}
}

// Algo1Half must degrade with accumulation length (legacy FP16-accumulate
// HMMA semantics, the paper's Cu-Algo1 FP16 behaviour).
func TestAlgo1HalfDegradesWithAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mare := func(n, hw int) float64 {
		p := conv.Params{N: n, IH: hw, IW: hw, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1}
		x64 := tensor.NewFloat64(p.XShape())
		dy64 := tensor.NewFloat64(p.DYShape())
		for i := range x64.Data {
			x64.Data[i] = rng.Float64()
		}
		for i := range dy64.Data {
			dy64.Data[i] = rng.Float64() * 0.01
		}
		xh := x64.ToFloat32().ToHalf()
		dyh := dy64.ToFloat32().ToHalf()
		want := conv.BackwardFilterDirect64(p, xh.ToFloat32().ToFloat64(),
			dyh.ToFloat32().ToFloat64())
		return tensor.MARE(Algo1Half(p, xh, dyh), want)
	}
	small := mare(1, 8)
	large := mare(8, 32)
	if large <= small {
		t.Errorf("expected degradation: small %v, large %v", small, large)
	}
	if large < 1e-2 {
		t.Errorf("large-accumulation FP16 error %v suspiciously small", large)
	}
}
