package winrs

import (
	"math/rand"
	"runtime"
	"testing"
)

func TestPublicAPIQuickPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Params{N: 2, IH: 16, IW: 16, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1}
	x := NewTensor(p.XShape())
	dy := NewTensor(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)

	dw, err := BackwardFilter(p, x, dy)
	if err != nil {
		t.Fatal(err)
	}
	if dw.Shape != p.DWShape() {
		t.Fatalf("result shape %v, want %v", dw.Shape, p.DWShape())
	}
	if m := MARE(dw, Reference(p, x, dy)); m > 1e-5 {
		t.Errorf("MARE %v", m)
	}
}

func TestPlanReuseAndIntrospection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := Params{N: 2, IH: 20, IW: 22, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1}
	plan, err := NewPlan(p, WithHardware(Hardware{NSM: 128}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Segments() < 1 || plan.KernelPair() == "" {
		t.Errorf("introspection: Z=%d pair=%q", plan.Segments(), plan.KernelPair())
	}
	if plan.WorkspaceBytes() != int64(plan.Segments()-1)*int64(p.DWShape().Elems())*4 {
		t.Error("workspace accounting mismatch")
	}
	x := NewTensor(p.XShape())
	dy := NewTensor(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	a := plan.Execute(x, dy)
	b := plan.Execute(x, dy) // reuse must be deterministic
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("plan reuse changed results")
		}
	}
}

func TestForcedSegmentsOption(t *testing.T) {
	p := Params{N: 2, IH: 24, IW: 24, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1}
	plan, err := NewPlan(p, WithSegments(6))
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 2 approximates the target (the paper's Z ≈ Ẑ): realized
	// count must be multi-segment and within 2x of the request.
	if z := plan.Segments(); z < 3 || z > 12 {
		t.Errorf("forced Z target 6, realized %d", z)
	}
}

func TestFP16PublicPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := Params{N: 2, IH: 14, IW: 14, FH: 3, FW: 3, IC: 4, OC: 4, PH: 1, PW: 1}
	x := NewTensor(p.XShape())
	dy := NewTensor(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 0.01)
	dw, err := BackwardFilterHalf(p, x.ToHalf(), dy.ToHalf())
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth from the quantized inputs.
	xq := x.ToHalf().ToFloat32()
	dyq := dy.ToHalf().ToFloat32()
	if m := MARE(dw, Reference(p, xq, dyq)); m > 5e-3 {
		t.Errorf("FP16 MARE %v", m)
	}
}

func TestInvalidParamsError(t *testing.T) {
	if _, err := NewPlan(Params{}); err == nil {
		t.Error("expected error for zero params")
	}
	if _, err := BackwardFilter(Params{}, nil, nil); err == nil {
		t.Error("expected error from one-shot API")
	}
}

func TestExtensionsPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 3, PH: 1, PW: 1}
	x := NewTensor(p.XShape())
	w := NewTensor(p.DWShape())
	dy := NewTensor(p.DYShape())
	x.FillUniform(rng, 0, 1)
	w.FillUniform(rng, -1, 1)
	dy.FillUniform(rng, 0, 1)

	// Forward + BackwardData round out the layer triad.
	y, err := Forward(p, x, w)
	if err != nil {
		t.Fatal(err)
	}
	if y.Shape != p.DYShape() {
		t.Errorf("forward shape %v", y.Shape)
	}
	dx, err := BackwardData(p, dy, w)
	if err != nil {
		t.Fatal(err)
	}
	if dx.Shape != p.XShape() {
		t.Errorf("backward-data shape %v", dx.Shape)
	}

	// Quantized path through the plan.
	plan, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	ref := Reference(p, x, dy)
	for _, q := range []Quantizer{BF16, FP8E4M3, FP8E5M2, Int8(4)} {
		got := plan.ExecuteQuantized(x, dy, q)
		if m := MARE(got, ref); m > 0.3 {
			t.Errorf("%s MARE %v", q.Name, m)
		}
	}

	// Volumetric path.
	p3 := Params3D{N: 1, ID: 4, IH: 8, IW: 8, FD: 3, FH: 3, FW: 3,
		IC: 2, OC: 2, PD: 1, PH: 1, PW: 1}
	x3 := NewTensor5(p3.XShape())
	dy3 := NewTensor5(p3.DYShape())
	x3.FillUniform(rng, 0, 1)
	dy3.FillUniform(rng, 0, 1)
	dw3, err := BackwardFilter3D(p3, x3, dy3)
	if err != nil {
		t.Fatal(err)
	}
	if dw3.Shape != p3.DWShape() {
		t.Errorf("3D gradient shape %v", dw3.Shape)
	}
}

func TestStridedPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := StridedParams{N: 1, IH: 14, IW: 14, FH: 3, FW: 3, IC: 2, OC: 2,
		PH: 1, PW: 1, SH: 2, SW: 2}
	x := NewTensor(p.XShape())
	dy := NewTensor(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	dw, err := BackwardFilterStrided(p, x, dy)
	if err != nil {
		t.Fatal(err)
	}
	if dw.Shape != p.DWShape() {
		t.Errorf("shape %v", dw.Shape)
	}
}

func TestStridedTriadPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := StridedParams{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 2, OC: 2,
		PH: 1, PW: 1, SH: 2, SW: 2}
	x := NewTensor(p.XShape())
	w := NewTensor(p.DWShape())
	dy := NewTensor(p.DYShape())
	x.FillUniform(rng, 0, 1)
	w.FillUniform(rng, -1, 1)
	dy.FillUniform(rng, 0, 1)
	y, err := ForwardStrided(p, x, w)
	if err != nil || y.Shape != p.DYShape() {
		t.Fatalf("forward: %v %v", err, y)
	}
	dx, err := BackwardDataStrided(p, dy, w)
	if err != nil || dx.Shape != p.XShape() {
		t.Fatalf("backward-data: %v", err)
	}
	dw, err := BackwardFilterStrided(p, x, dy)
	if err != nil || dw.Shape != p.DWShape() {
		t.Fatalf("backward-filter: %v", err)
	}
}

// A plan keeps its workspace through garbage collection: after two GC
// cycles, which empty every sync.Pool, an Execute allocates its result and
// less than 1 KiB besides — neither buckets, Ŵ cache nor unit scratch.
// The result, 72 KiB, is a whole number of pages, so the allocator rounds
// nothing onto it. The calls run inline (GOMAXPROCS 1): on the pool, a
// call on which more units overlap than on any before it takes one more
// scratch from the heap, whatever the collector does.
func TestPlanExecuteAfterGCAllocatesOnlyResult(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(3))
	p := Params{N: 1, IH: 14, IW: 14, FH: 3, FW: 3, IC: 32, OC: 64, PH: 1, PW: 1}
	plan, err := NewPlan(p, WithSegments(4))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Segments() < 2 {
		t.Fatalf("setup: Z = %d holds no bucket", plan.Segments())
	}
	x, dy := NewTensor(p.XShape()), NewTensor(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	want := plan.Execute(x, dy)
	result := uint64(p.DWShape().Elems()) * 4
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := plan.Execute(x, dy)
		runtime.ReadMemStats(&after)
		if extra := after.TotalAlloc - before.TotalAlloc - result; extra > 1<<10 {
			t.Errorf("call %d after two GCs allocated %d bytes beyond its %d-byte result", i, extra, result)
		}
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("call %d: result differs at %d", i, j)
			}
		}
	}
}

// Plan.ExecuteQuantized borrows the plan's workspace like Execute: a
// steady-state call, and a call after two GC cycles, allocate the result
// and less than 1 KiB besides — neither buckets, Ŵ cache nor the rounded
// operand mirrors. Inline, for the reason TestPlanExecuteAfterGC gives.
func TestPlanExecuteQuantizedAllocatesOnlyResult(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(4))
	p := Params{N: 1, IH: 14, IW: 14, FH: 3, FW: 3, IC: 32, OC: 64, PH: 1, PW: 1}
	plan, err := NewPlan(p, WithSegments(4))
	if err != nil {
		t.Fatal(err)
	}
	x, dy := NewTensor(p.XShape()), NewTensor(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	want := plan.ExecuteQuantized(x, dy, BF16)
	result := uint64(p.DWShape().Elems()) * 4
	for i, gc := range []bool{false, true, true} {
		if gc {
			runtime.GC()
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := plan.ExecuteQuantized(x, dy, BF16)
		runtime.ReadMemStats(&after)
		if extra := after.TotalAlloc - before.TotalAlloc - result; extra > 1<<10 {
			t.Errorf("call %d (after GC: %v) allocated %d bytes beyond its %d-byte result", i, gc, extra, result)
		}
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("call %d: result differs at %d", i, j)
			}
		}
	}
}
