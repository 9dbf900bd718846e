package fftconv

import (
	"winrs/internal/conv"
	"winrs/internal/sched"
	"winrs/internal/tensor"
)

// PlaneSize returns the FFT plane extents (Lh, Lw): powers of two covering
// the zero-padded input, which keeps the circular correlation free of
// wraparound for all filter offsets.
func PlaneSize(p conv.Params) (lh, lw int) {
	return NextPow2(p.IH + 2*p.PH), NextPow2(p.IW + 2*p.PW)
}

// planeSize is the internal alias of PlaneSize.
func planeSize(p conv.Params) (lh, lw int) { return PlaneSize(p) }

// ModelWorkspace returns the workspace the modelled GPU FFT algorithm
// allocates, in bytes: complex64 spectrum planes for every (n, ic) input,
// every (n, oc) gradient and every (oc, ic) accumulator — the fbfft layout.
// This is the quantity entering the Table 2 comparison.
func ModelWorkspace(p conv.Params) int64 {
	lh, lw := planeSize(p)
	planes := int64(p.N)*int64(p.IC) + int64(p.N)*int64(p.OC) +
		int64(p.OC)*int64(p.IC)
	return planes * int64(lh) * int64(lw) * 8 // complex64
}

// BackwardFilter computes ∇W via FFT correlation. Arithmetic runs in
// complex128 for spectral stability (cuDNN's FP32 FFT achieves ~1e-7 MARE;
// ours is bounded by the float32 quantization of inputs and outputs), and
// the result is rounded to float32.
func BackwardFilter(p conv.Params, x, dy *tensor.Float32) *tensor.Float32 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if x.Shape != p.XShape() || dy.Shape != p.DYShape() {
		panic("fftconv: operand shape mismatch")
	}
	lh, lw := planeSize(p)
	plane := lh * lw
	oh, ow := p.OH(), p.OW()

	// Stage 1: forward transforms of all X planes (with explicit zero
	// padding) and all ∇Y planes.
	xSpec := make([]complex128, p.N*p.IC*plane)
	ySpec := make([]complex128, p.N*p.OC*plane)
	sched.For(p.N*p.IC, func(idx int) {
		n, ic := idx/p.IC, idx%p.IC
		buf := xSpec[idx*plane : (idx+1)*plane]
		for ih := 0; ih < p.IH; ih++ {
			for iw := 0; iw < p.IW; iw++ {
				buf[(ih+p.PH)*lw+(iw+p.PW)] = complex(float64(x.At(n, ih, iw, ic)), 0)
			}
		}
		FFT2D(buf, lh, lw)
	})
	sched.For(p.N*p.OC, func(idx int) {
		n, oc := idx/p.OC, idx%p.OC
		buf := ySpec[idx*plane : (idx+1)*plane]
		for y := 0; y < oh; y++ {
			for xw := 0; xw < ow; xw++ {
				buf[y*lw+xw] = complex(float64(dy.At(n, y, xw, oc)), 0)
			}
		}
		FFT2D(buf, lh, lw)
	})

	// Stage 2+3: per (oc, ic) pair, accumulate X̂ ⊙ conj(Ŷ) over the batch
	// (the EWM), then inverse-transform and read the F_H×F_W corner (the
	// correlation at filter offsets).
	dw := tensor.NewFloat32(p.DWShape())
	sched.For(p.OC*p.IC, func(idx int) {
		oc, ic := idx/p.IC, idx%p.IC
		acc := make([]complex128, plane)
		for n := 0; n < p.N; n++ {
			xb := xSpec[(n*p.IC+ic)*plane : (n*p.IC+ic+1)*plane]
			yb := ySpec[(n*p.OC+oc)*plane : (n*p.OC+oc+1)*plane]
			for i := 0; i < plane; i++ {
				yc := yb[i]
				acc[i] += xb[i] * complex(real(yc), -imag(yc))
			}
		}
		IFFT2D(acc, lh, lw)
		for fh := 0; fh < p.FH; fh++ {
			for fw := 0; fw < p.FW; fw++ {
				dw.Set(oc, fh, fw, ic, float32(real(acc[fh*lw+fw])))
			}
		}
	})
	return dw
}
