package backend

import (
	"context"
	"runtime"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/core"
	"winrs/internal/gemm"
	"winrs/internal/tensor"
	"winrs/internal/winnf"
)

// p3x3 is the workhorse geometry: winnf-supported square 3×3.
var p3x3 = conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 5, PH: 1, PW: 1}

func TestDefaultRegistryOrder(t *testing.T) {
	want := []string{"winrs", "gemm", "direct", "fft", "winnf"}
	got := Default().Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		b, ok := Default().Get(name)
		if !ok || b.Name() != name {
			t.Errorf("Get(%q) = %v, %v", name, b, ok)
		}
	}
	if _, ok := Default().Get("nope"); ok {
		t.Error("Get of unknown backend succeeded")
	}
}

func TestNewRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate backend name did not panic")
		}
	}()
	NewRegistry(&gemmBackend{}, &gemmBackend{})
}

func TestSupportsEnvelope(t *testing.T) {
	reg := Default()
	cases := []struct {
		backend string
		p       conv.Params
		prec    Precision
		want    bool
	}{
		{"fft", p3x3, FP32, true},
		{"fft", p3x3, FP16, false}, // FFT has no binary16 path
		{"winnf", p3x3, FP32, true},
		{"winnf", p3x3, FP16, true}, // 3×3 FP16 is covered
		{"winnf", conv.Params{N: 1, IH: 14, IW: 16, FH: 5, FW: 5, IC: 2, OC: 3, PH: 2, PW: 2}, FP16, false}, // 5×5 FP16 is not
		{"winnf", conv.Params{N: 1, IH: 14, IW: 9, FH: 3, FW: 1, IC: 3, OC: 2}, FP32, false},                // non-square
		{"winnf", conv.Params{N: 1, IH: 16, IW: 18, FH: 7, FW: 7, IC: 2, OC: 2}, FP32, false},               // 7×7
		{"gemm", p3x3, FP16, true},
		{"direct", p3x3, FP16, true},
		{"winrs", p3x3, FP16, true},
	}
	for _, tc := range cases {
		b, ok := reg.Get(tc.backend)
		if !ok {
			t.Fatalf("backend %q missing", tc.backend)
		}
		if got := b.Supports(tc.p, tc.prec); got != tc.want {
			t.Errorf("%s.Supports(%v, %v) = %v, want %v", tc.backend, tc.p, tc.prec, got, tc.want)
		}
		// Invalid geometry is never supported.
		if b.Supports(conv.Params{}, tc.prec) {
			t.Errorf("%s.Supports(zero params) = true", tc.backend)
		}
	}
}

func TestEligibleFiltersByPrecision(t *testing.T) {
	reg := Default()
	fp32 := reg.Eligible(p3x3, FP32)
	if len(fp32) != 5 {
		t.Errorf("FP32 eligible on 3x3: %d backends, want 5", len(fp32))
	}
	fp16 := reg.Eligible(p3x3, FP16)
	for _, b := range fp16 {
		if b.Name() == "fft" {
			t.Error("fft eligible at FP16")
		}
	}
	if len(fp16) != 4 {
		t.Errorf("FP16 eligible on 3x3: %d backends, want 4", len(fp16))
	}
}

func TestWorkspaceBytes(t *testing.T) {
	reg := Default()
	get := func(name string) Backend {
		b, ok := reg.Get(name)
		if !ok {
			t.Fatalf("backend %q missing", name)
		}
		return b
	}
	if ws := get("direct").WorkspaceBytes(p3x3, FP32); ws != 0 {
		t.Errorf("direct workspace = %d, want 0", ws)
	}
	if ws, want := get("gemm").WorkspaceBytes(p3x3, FP32), gemm.Algo1Workspace(p3x3); ws != want {
		t.Errorf("gemm workspace = %d, want %d", ws, want)
	}
	full := get("winnf").WorkspaceBytes(p3x3, FP32)
	if want := winnf.Workspace(p3x3); full != want {
		t.Errorf("winnf FP32 workspace = %d, want %d", full, want)
	}
	if half := get("winnf").WorkspaceBytes(p3x3, FP16); half != full/2 {
		t.Errorf("winnf FP16 workspace = %d, want %d", half, full/2)
	}
	if ws := get("fft").WorkspaceBytes(p3x3, FP32); ws <= 0 {
		t.Errorf("fft workspace = %d, want > 0", ws)
	}
	// WinRS reports the paper's (Z−1)·|∇W| workspace — legitimately zero
	// on a tiny single-segment shape.
	cfg, err := core.Configure(p3x3)
	if err != nil {
		t.Fatal(err)
	}
	if ws, want := get("winrs").WorkspaceBytes(p3x3, FP32), cfg.WorkspaceBytes(); ws != want {
		t.Errorf("winrs workspace = %d, want %d", ws, want)
	}
}

func TestOperandShapeChecks(t *testing.T) {
	x, dy := diffLayer(t, 1, p3x3)
	wrong := tensor.NewFloat32(tensor.Shape{N: 1, H: 1, W: 1, C: 1})
	for _, b := range Default().Backends() {
		if err := b.ExecuteCtx(context.Background(), p3x3, x, dy, wrong); err == nil {
			t.Errorf("%s: bad dst shape accepted", b.Name())
		}
		if err := b.ExecuteCtx(context.Background(), p3x3, dy, x, tensor.NewFloat32(p3x3.DWShape())); err == nil {
			t.Errorf("%s: swapped operands accepted", b.Name())
		}
	}
}

func TestExecuteHalfUnsupported(t *testing.T) {
	x, dy := diffLayer(t, 2, p3x3)
	xh, dyh := x.ToHalf(), dy.ToHalf()
	dst := tensor.NewFloat32(p3x3.DWShape())
	b, _ := Default().Get("fft")
	if err := b.ExecuteHalfCtx(context.Background(), p3x3, xh, dyh, dst); err == nil {
		t.Error("fft ExecuteHalfCtx succeeded; want no-FP16 error")
	}
}

func TestExecuteCancelledContext(t *testing.T) {
	x, dy := diffLayer(t, 3, p3x3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range Default().Backends() {
		dst := tensor.NewFloat32(p3x3.DWShape())
		if err := b.ExecuteCtx(ctx, p3x3, x, dy, dst); err == nil {
			t.Errorf("%s: cancelled context accepted", b.Name())
		}
	}
}

// The WinRS adapter must not retain anything per geometry it has seen: a
// long-lived registry (winrs-serve's "auto" traffic) meets an unbounded
// stream of distinct layers, and its plan cache is what bounds per-key
// memory. About 20k Supports calls on distinct geometries must leave the
// post-GC heap within 2 MiB of where it started.
func TestWinRSSupportsRetainsNothingPerGeometry(t *testing.T) {
	b, _ := Default().Get("winrs")
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	n := 0
	for ic := 1; ic <= 5; ic++ {
		for ih := 8; ih < 72; ih++ {
			for iw := 8; iw < 72; iw++ {
				p := conv.Params{N: 1, IH: ih, IW: iw, FH: 3, FW: 3, IC: ic, OC: 2, PH: 1, PW: 1}
				if b.Supports(p, FP32) {
					n++
				}
			}
		}
	}
	after := heap()
	if n < 20000 {
		t.Fatalf("only %d geometries supported, want ≥ 20000", n)
	}
	if grew := int64(after) - int64(before); grew >= 2<<20 {
		t.Errorf("heap grew %d bytes over %d distinct geometries, want < 2 MiB", grew, n)
	}
}
