package core

import (
	"math/rand"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/fp16"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

// This file pins the binary16 codec's integration into the execution
// pipeline: a serial reference executor that keeps a binary16 Ŵ cache and
// calls the scalar fp16.ToFloat32/FromFloat32 once per element — the
// codec-per-use FP16 path the bulk kernels and the decoded-operand cache
// replaced — must produce bit-identical gradients to ExecuteHalf on every
// differential-sweep shape, inline and through the pool.

// halfMats returns the transform matrices of the FP16 path.
func halfMats(tr *winograd.Transform) (g, d, a *winograd.Mat) { return halfStorage.mats(tr) }

// fillRowHalfScalar is the FP16 Ŵ-cache fill with the per-element scalar
// codec: decode the ∇Y unit, filter-transform in FP32, encode to binary16.
func fillRowHalfScalar(p conv.Params, seg Segment, oh int, dy *tensor.Half,
	s *tileScratch, what []fp16.Bits) {
	tr := seg.K.Transform()
	gMat, _, _ := halfMats(tr)
	r, alpha, oc := tr.R, tr.Alpha, p.OC
	wRaw := growF32(&s.wRaw, r*oc)
	wHatF := growF32(&s.wHatF, alpha*oc)
	entry := alpha * oc
	tiles := seg.Cols() / r
	rowBase := (oh - seg.Row0) * tiles

	for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
		for nb := 0; nb < p.N; nb++ {
			for u := 0; u < r; u++ {
				base := dy.Shape.Index(nb, oh, ow0+u, 0)
				dst := wRaw[u*oc : (u+1)*oc]
				for c := 0; c < oc; c++ {
					dst[c] = fp16.ToFloat32(dy.Data[base+c])
				}
			}
			matMulF32(gMat, wRaw, wHatF, r, oc)
			dst := what[((rowBase+t)*p.N+nb)*entry:]
			for i, vv := range wHatF {
				dst[i] = fp16.FromFloat32(vv)
			}
		}
	}
}

// segmentTileHalfScalar is the FP16 fused unit with the per-element scalar
// codec: scalar Ŵ decode, scalar X gather decode, scalar encode→decode
// pair for the SMEM rounding, base 4×4 EWM.
func segmentTileHalfScalar(p conv.Params, seg Segment, fh, j int, x *tensor.Half,
	what []fp16.Bits, bucket []float32) {
	k := seg.K
	tr := k.Transform()
	_, dMat, aMat := halfMats(tr)
	n, r, alpha := tr.N, tr.R, tr.Alpha
	oc, ic := p.OC, p.IC

	s := getTileScratch()
	defer putTileScratch(s)
	v := growF32Zero(&s.v, alpha*oc*ic)
	wDec := growF32(&s.wHatF, alpha*oc)
	xRaw := growF32(&s.xRaw, alpha*ic)
	xHat := growF32(&s.xHatF, alpha*ic)
	colBase := j * n
	entry := alpha * oc
	tiles := seg.Cols() / r

	for oh := seg.Row0; oh < seg.Row1; oh++ {
		ih := oh + fh - p.PH
		if ih < 0 || ih >= p.IH {
			continue
		}
		rowBase := (oh - seg.Row0) * tiles
		for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
			for nb := 0; nb < p.N; nb++ {
				hw := what[((rowBase+t)*p.N+nb)*entry:]
				hw = hw[:entry]
				for i, hb := range hw {
					wDec[i] = fp16.ToFloat32(hb)
				}
				for u := 0; u < alpha; u++ {
					iw := ow0 + colBase + u - p.PW
					dst := xRaw[u*ic : (u+1)*ic]
					if iw < 0 || iw >= p.IW {
						for i := range dst {
							dst[i] = 0
						}
						continue
					}
					base := x.Shape.Index(nb, ih, iw, 0)
					for c := 0; c < ic; c++ {
						dst[c] = fp16.ToFloat32(x.Data[base+c])
					}
				}
				matTMulF32(dMat, xRaw, xHat, alpha, ic)
				for i, vv := range xHat {
					xHat[i] = fp16.ToFloat32(fp16.FromFloat32(vv))
				}
				ewmPanels(v, wDec, xHat, alpha, oc, ic)
			}
		}
	}
	writeOutputRef(p, aMat, v, bucket, fh, colBase, n, alpha, oc, ic, growF32(&s.acc, alpha))
}

// executeHalfScalarRef runs the full FP16 plan serially with the scalar
// codec everywhere: binary16 Ŵ-cache fill, fused units, Kahan reduction.
func executeHalfScalarRef(cfg *Config, x, dy *tensor.Half) *tensor.Float32 {
	buckets := refBuckets(cfg)
	what16 := make([]fp16.Bits, cfg.whatOff[len(cfg.whatOff)-1])
	s := getTileScratch()
	for si, seg := range cfg.Segments {
		what := what16[cfg.whatOff[si]:cfg.whatOff[si+1]]
		for oh := seg.Row0; oh < seg.Row1; oh++ {
			fillRowHalfScalar(cfg.Params, seg, oh, dy, s, what)
		}
	}
	putTileScratch(s)

	fw := cfg.Params.FW
	for si, seg := range cfg.Segments {
		what := what16[cfg.whatOff[si]:cfg.whatOff[si+1]]
		jTiles := fw / seg.K.N
		for fh := 0; fh < cfg.Params.FH; fh++ {
			for jt := 0; jt < jTiles; jt++ {
				segmentTileHalfScalar(cfg.Params, seg, fh, jt, x, what, buckets[si])
			}
		}
	}
	return reduceRef(cfg, buckets, nil)
}

// halfLayer builds binary16 operands with a value mix that exercises the
// codec's interesting classes: normals across the layer's dynamic range,
// subnormal-scale values, exact zeros and negatives.
func halfLayer(t testing.TB, seed int64, p conv.Params) (*tensor.Half, *tensor.Half) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fill := func(f *tensor.Float32) {
		for i := range f.Data {
			switch rng.Intn(8) {
			case 0:
				f.Data[i] = 0
			case 1:
				f.Data[i] = (rng.Float32() - 0.5) * 1e-6 // near/below fp16 subnormal scale
			case 2:
				f.Data[i] = (rng.Float32() - 0.5) * 1024
			default:
				f.Data[i] = rng.Float32()*2 - 1
			}
		}
	}
	x := tensor.NewFloat32(p.XShape())
	dy := tensor.NewFloat32(p.DYShape())
	fill(x)
	fill(dy)
	return x.ToHalf(), dy.ToHalf()
}

// ExecuteHalf with the table-driven codec must be bit-identical to the
// scalar-codec reference executor on every sweep shape and forced
// segmentation, both inline (GOMAXPROCS 1) and through a width-4 pool.
// Run under -race via `make race`, this also pins that the lazily built
// decode LUT is safe under concurrent first use from pool workers.
func TestExecuteHalfMatchesScalarCodecRef(t *testing.T) {
	for _, tc := range poolSweepCases {
		for _, z := range tc.segs {
			opts := []Option{WithFP16()}
			if z > 0 {
				opts = append(opts, WithSegments(z))
			}
			cfg, err := Configure(tc.p, opts...)
			if err != nil {
				t.Fatalf("%s z=%d: %v", tc.name, z, err)
			}
			xh, dyh := halfLayer(t, 171, tc.p)
			want := executeHalfScalarRef(cfg, xh, dyh)

			got := ExecuteHalf(cfg, xh, dyh)
			equalBits(t, tc.name+"/inline", got.Data, want.Data)

			withTestPool(t, 4, func() {
				got := ExecuteHalf(cfg, xh, dyh)
				equalBits(t, tc.name+"/pool4", got.Data, want.Data)
			})
		}
	}
}

// The strided FP16 path routes through the same FP16 fill and unit
// kernels per phase; its results must be identical inline and pooled.
func TestStridedHalfMatchesScalarCodecRef(t *testing.T) {
	cases := []conv.StridedParams{
		{N: 1, IH: 13, IW: 13, FH: 3, FW: 3, IC: 3, OC: 4, PH: 1, PW: 1, SH: 2, SW: 2},
		{N: 2, IH: 11, IW: 15, FH: 3, FW: 3, IC: 2, OC: 3, SH: 2, SW: 1},
	}
	for _, p := range cases {
		rng := rand.New(rand.NewSource(172))
		x := tensor.NewFloat32(p.XShape())
		dy := tensor.NewFloat32(p.DYShape())
		x.FillUniform(rng, -1, 1)
		dy.FillUniform(rng, -1, 1)
		xh, dyh := x.ToHalf(), dy.ToHalf()

		want, err := BackwardFilterStridedHalf(p, xh, dyh)
		if err != nil {
			t.Fatal(err)
		}
		withTestPool(t, 4, func() {
			got, err := BackwardFilterStridedHalf(p, xh, dyh)
			if err != nil {
				t.Fatal(err)
			}
			equalBits(t, "strided-half", got.Data, want.Data)
		})
	}
}

// matMulF32 computes out = m·in for in laid out [m.Cols][width] and out
// [m.Rows][width], in float32 — the oracle's filter transform: one
// ascending-k chain per element with zero coefficients skipped.
func matMulF32(m *winograd.Mat, in, out []float32, rows, width int) {
	if rows != m.Cols {
		panic("core: matMulF32 dimension mismatch")
	}
	if width == 1 {
		// Depthwise column shape (the grouped Ŵ fill's O_C/G == 1 panel):
		// scalar accumulators, same ascending-k order and zero skip.
		for i := 0; i < m.Rows; i++ {
			var s float32
			for k := 0; k < rows; k++ {
				if c := float32(m.At(i, k)); c != 0 {
					s += float32(c * in[k])
				}
			}
			out[i] = s
		}
		return
	}
	for i := 0; i < m.Rows; i++ {
		dst := out[i*width : (i+1)*width]
		for x := range dst {
			dst[x] = 0
		}
		for k := 0; k < rows; k++ {
			c := float32(m.At(i, k))
			if c == 0 {
				continue
			}
			src := in[k*width : (k+1)*width]
			for x, sv := range src {
				dst[x] += float32(c * sv)
			}
		}
	}
}
