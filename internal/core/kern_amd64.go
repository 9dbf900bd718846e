package core

// ewmBlockAVX2 is the AVX2 body of ewmChunkAVX2: for rows a < oc and
// columns b < n8 (a positive multiple of 8 no larger than ic) it adds
// w[t·oc+a]·x[t·ic+b] to v[a·ic+b] for t = 0, …, tc−1 in turn (tc ≥ 1),
// skipping the terms whose w is ±0. When first ≠ 0 the sums start from +0
// and v's prior contents are never read.
//
//go:noescape
func ewmBlockAVX2(v, w, x *float32, oc, ic, n8, tc, first int)

// outputRowAVX2 is the AVX2 body of outputRow: row[b] = Σ_e cs[e]·v[e·stride+b]
// for b < n8, a positive multiple of 8, over alpha ≥ 1 terms.
//
//go:noescape
func outputRowAVX2(row, cs, v *float32, n8, alpha, stride int)
