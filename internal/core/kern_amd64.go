package core

// ewmBlockAVX2 is the AVX2 body of ewmChunkAVX2: for rows a < oc and
// columns b < n8 (a positive multiple of 8 no larger than ic) it adds
// w[t·oc+a]·x[t·ic+b] to v[a·ic+b] for t = 0, …, tc−1 in turn (tc ≥ 1),
// skipping the terms whose w is ±0. When first ≠ 0 the sums start from +0
// and v's prior contents are never read.
//
//go:noescape
func ewmBlockAVX2(v, w, x *float32, oc, ic, n8, tc, first int)

// outputRowsAVX2 is the AVX2 body of outputRows: out[i·width+b] =
// Σ_e a[e·n+i]·v[e·stride+b] for rows i < n (1 ≤ n ≤ maxOutputRows) and
// columns b < width&^7, over alpha ≥ 1 terms.
//
//go:noescape
func outputRowsAVX2(out, a, v *float32, n, alpha, width, stride int)

// ewmDiagAVX2 is the AVX2 body of ewmDiag: v[i] += w[i]·x[i] for every
// i < n8 (a positive multiple of 8) with w[i] ≠ ±0.
//
//go:noescape
func ewmDiagAVX2(v, w, x *float32, n8 int)
