package backend

import (
	"context"
	"fmt"

	"winrs/internal/conv"
	"winrs/internal/core"
	"winrs/internal/fftconv"
	"winrs/internal/gemm"
	"winrs/internal/tensor"
	"winrs/internal/winnf"
)

// errFP16 is the uniform "no FP16 path" failure.
func errFP16(name string) error {
	return fmt.Errorf("backend: %s has no FP16 path", name)
}

// --- winrs: the paper's fused segmented Winograd algorithm ---

// winrsBackend adapts internal/core. Configuration adaptation (§4) runs
// per call — it takes a few microseconds, and a memo keyed by geometry
// would grow with every distinct layer a long-lived process sees. The
// workspace is allocated per call too: this is the registry/measurement
// entry point, while the serving hot path keeps its own pooled route
// through serve.Runtime (which reuses configs and workspaces in its plan
// cache and stays 0 allocs/op).
type winrsBackend struct{}

func (winrsBackend) Name() string { return "winrs" }

// configure adapts the WinRS configuration for (p, prec).
func configure(p conv.Params, prec Precision) (*core.Config, error) {
	if prec == FP16 {
		return core.Configure(p, core.WithFP16())
	}
	return core.Configure(p)
}

func (winrsBackend) Supports(p conv.Params, prec Precision) bool {
	if p.Validate() != nil {
		return false
	}
	_, err := configure(p, prec)
	return err == nil
}

func (winrsBackend) WorkspaceBytes(p conv.Params, prec Precision) int64 {
	cfg, err := configure(p, prec)
	if err != nil {
		return 0
	}
	return cfg.WorkspaceBytes()
}

func (winrsBackend) ExecuteCtx(ctx context.Context, p conv.Params, x, dy, dst *tensor.Float32) error {
	if err := checkOperands(p, x.Shape, dy.Shape, dst.Shape); err != nil {
		return err
	}
	cfg, err := configure(p, FP32)
	if err != nil {
		return err
	}
	return observe(ctx, "winrs", func() error {
		_, err := core.ExecuteInCtx(ctx, cfg, core.NewWorkspace(cfg), x, dy, dst)
		return err
	})
}

func (winrsBackend) ExecuteHalfCtx(ctx context.Context, p conv.Params, x, dy *tensor.Half, dst *tensor.Float32) error {
	if err := checkOperands(p, x.Shape, dy.Shape, dst.Shape); err != nil {
		return err
	}
	cfg, err := configure(p, FP16)
	if err != nil {
		return err
	}
	return observe(ctx, "winrs", func() error {
		_, err := core.ExecuteHalfInCtx(ctx, cfg, core.NewWorkspace(cfg), x, dy, dst)
		return err
	})
}

// --- gemm: explicit chunked im2col + GEMM (the Cu-Algo1 stand-in) ---

type gemmBackend struct{}

func (gemmBackend) Name() string { return "gemm" }

func (gemmBackend) Supports(p conv.Params, prec Precision) bool {
	return p.Validate() == nil
}

// WorkspaceBytes reports the per-group im2col scratch: grouped execution
// runs Algo1 one group at a time, so only one group's chunk buffer is live.
func (gemmBackend) WorkspaceBytes(p conv.Params, prec Precision) int64 {
	if p.Validate() != nil {
		return 0
	}
	return gemm.Algo1Workspace(groupParams(p))
}

// groupParams returns the single-group geometry of p (p itself when
// ungrouped).
func groupParams(p conv.Params) conv.Params {
	if p.G() <= 1 {
		return p
	}
	pg := p
	pg.IC, pg.OC, pg.Groups = p.ICG(), p.OCG(), 0
	return pg
}

// gatherChans copies channels [off, off+width) of every row of src
// (rows × srcC) into dst (rows × width); the grouped adapters' operand
// slicer (NHWC keeps channels innermost).
func gatherChans[E any](dst, src []E, rows, srcC, off, width int) {
	for r := 0; r < rows; r++ {
		copy(dst[r*width:(r+1)*width], src[r*srcC+off:r*srcC+off+width])
	}
}

func (gemmBackend) ExecuteCtx(ctx context.Context, p conv.Params, x, dy, dst *tensor.Float32) error {
	if err := checkOperands(p, x.Shape, dy.Shape, dst.Shape); err != nil {
		return err
	}
	return observe(ctx, "gemm", func() error {
		if p.G() <= 1 {
			copy(dst.Data, gemm.Algo1(p, x, dy).Data)
			return nil
		}
		g, icg, ocg := p.G(), p.ICG(), p.OCG()
		pg := groupParams(p)
		xg := tensor.NewFloat32(pg.XShape())
		dyg := tensor.NewFloat32(pg.DYShape())
		slab := pg.DWShape().Elems()
		for gi := 0; gi < g; gi++ {
			gatherChans(xg.Data, x.Data, p.N*p.IH*p.IW, p.IC, gi*icg, icg)
			gatherChans(dyg.Data, dy.Data, p.N*p.OH()*p.OW(), p.OC, gi*ocg, ocg)
			copy(dst.Data[gi*slab:(gi+1)*slab], gemm.Algo1(pg, xg, dyg).Data)
		}
		return nil
	})
}

func (gemmBackend) ExecuteHalfCtx(ctx context.Context, p conv.Params, x, dy *tensor.Half, dst *tensor.Float32) error {
	if err := checkOperands(p, x.Shape, dy.Shape, dst.Shape); err != nil {
		return err
	}
	return observe(ctx, "gemm", func() error {
		if p.G() <= 1 {
			copy(dst.Data, gemm.Algo1Half(p, x, dy).Data)
			return nil
		}
		g, icg, ocg := p.G(), p.ICG(), p.OCG()
		pg := groupParams(p)
		xg := tensor.NewHalf(pg.XShape())
		dyg := tensor.NewHalf(pg.DYShape())
		slab := pg.DWShape().Elems()
		for gi := 0; gi < g; gi++ {
			gatherChans(xg.Data, x.Data, p.N*p.IH*p.IW, p.IC, gi*icg, icg)
			gatherChans(dyg.Data, dy.Data, p.N*p.OH()*p.OW(), p.OC, gi*ocg, ocg)
			copy(dst.Data[gi*slab:(gi+1)*slab], gemm.Algo1Half(pg, xg, dyg).Data)
		}
		return nil
	})
}

// --- direct: naive summation (the oracle-adjacent reference) ---

// directBackend adapts internal/conv. Its FP16 path widens the binary16
// operands to float32 and runs the FP32 kernel — oracle semantics (the
// quantization error of the operands, none from the arithmetic), matching
// how the differential suite grounds FP16 backends.
type directBackend struct{}

func (directBackend) Name() string { return "direct" }

func (directBackend) Supports(p conv.Params, prec Precision) bool {
	return p.Validate() == nil
}

func (directBackend) WorkspaceBytes(p conv.Params, prec Precision) int64 { return 0 }

func (directBackend) ExecuteCtx(ctx context.Context, p conv.Params, x, dy, dst *tensor.Float32) error {
	if err := checkOperands(p, x.Shape, dy.Shape, dst.Shape); err != nil {
		return err
	}
	return observe(ctx, "direct", func() error {
		copy(dst.Data, conv.BackwardFilterDirect32(p, x, dy).Data)
		return nil
	})
}

func (directBackend) ExecuteHalfCtx(ctx context.Context, p conv.Params, x, dy *tensor.Half, dst *tensor.Float32) error {
	if err := checkOperands(p, x.Shape, dy.Shape, dst.Shape); err != nil {
		return err
	}
	return observe(ctx, "direct", func() error {
		copy(dst.Data, conv.BackwardFilterDirect32(p, x.ToFloat32(), dy.ToFloat32()).Data)
		return nil
	})
}

// --- fft: spectral correlation (the Cu-FFT stand-in; FP32 only) ---

type fftBackend struct{}

func (fftBackend) Name() string { return "fft" }

func (fftBackend) Supports(p conv.Params, prec Precision) bool {
	// Declines grouped layers: the spectral path has no channel-sliced
	// variant.
	return prec == FP32 && p.Validate() == nil && p.G() == 1
}

// WorkspaceBytes reports the Go implementation's actual scratch — the
// complex128 spectrum planes of every (n,ic) input and (n,oc) gradient
// (the per-pair accumulator plane is transient). fftconv.ModelWorkspace
// stays the GPU-model (complex64) quantity for the Table 2 comparisons.
func (fftBackend) WorkspaceBytes(p conv.Params, prec Precision) int64 {
	if prec != FP32 || p.Validate() != nil {
		return 0
	}
	lh, lw := fftconv.PlaneSize(p)
	planes := int64(p.N)*int64(p.IC) + int64(p.N)*int64(p.OC)
	return planes * int64(lh) * int64(lw) * 16
}

func (fftBackend) ExecuteCtx(ctx context.Context, p conv.Params, x, dy, dst *tensor.Float32) error {
	if err := checkOperands(p, x.Shape, dy.Shape, dst.Shape); err != nil {
		return err
	}
	if p.G() != 1 {
		return fmt.Errorf("backend: fft does not support grouped %v", p)
	}
	return observe(ctx, "fft", func() error {
		copy(dst.Data, fftconv.BackwardFilter(p, x, dy).Data)
		return nil
	})
}

func (fftBackend) ExecuteHalfCtx(ctx context.Context, p conv.Params, x, dy *tensor.Half, dst *tensor.Float32) error {
	return errFP16("fft")
}

// --- winnf: non-fused Winograd (the Cu-WinNF stand-in) ---

type winnfBackend struct{}

func (winnfBackend) Name() string { return "winnf" }

func (winnfBackend) Supports(p conv.Params, prec Precision) bool {
	// Declines grouped layers, mirroring the Cu-WinNF coverage.
	if p.Validate() != nil || p.G() != 1 || !winnf.Supported(p) {
		return false
	}
	if prec == FP16 {
		return p.FH == 3 // Cu-WinNF FP16 covers only 3×3
	}
	return true
}

func (winnfBackend) WorkspaceBytes(p conv.Params, prec Precision) int64 {
	if p.Validate() != nil || !winnf.Supported(p) {
		return 0
	}
	ws := winnf.Workspace(p)
	if prec == FP16 {
		return ws / 2 // intermediates held in binary16
	}
	return ws
}

func (winnfBackend) ExecuteCtx(ctx context.Context, p conv.Params, x, dy, dst *tensor.Float32) error {
	if err := checkOperands(p, x.Shape, dy.Shape, dst.Shape); err != nil {
		return err
	}
	if p.G() != 1 || !winnf.Supported(p) {
		return fmt.Errorf("backend: winnf does not support %v", p)
	}
	return observe(ctx, "winnf", func() error {
		copy(dst.Data, winnf.BackwardFilter(p, x, dy).Data)
		return nil
	})
}

func (winnfBackend) ExecuteHalfCtx(ctx context.Context, p conv.Params, x, dy *tensor.Half, dst *tensor.Float32) error {
	if err := checkOperands(p, x.Shape, dy.Shape, dst.Shape); err != nil {
		return err
	}
	if !(p.FH == 3 && p.FW == 3) || p.G() != 1 {
		return fmt.Errorf("backend: winnf FP16 supports only ungrouped 3x3, got %v", p)
	}
	return observe(ctx, "winnf", func() error {
		copy(dst.Data, winnf.BackwardFilterHalf(p, x, dy).Data)
		return nil
	})
}
