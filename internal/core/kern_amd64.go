package core

// ewmRank1AVX2 is the AVX2 body of ewmPanelAVX2: for each row a < oc with
// w[a] ≠ ±0 it adds w[a]·x[b] to v[a·ic+b] for b < n8, a positive multiple
// of 8 no larger than ic.
//
//go:noescape
func ewmRank1AVX2(v, w, x *float32, oc, ic, n8 int)

// outputRowAVX2 is the AVX2 body of outputRow: row[b] = Σ_e cs[e]·v[e·stride+b]
// for b < n8, a positive multiple of 8, over alpha ≥ 1 terms.
//
//go:noescape
func outputRowAVX2(row, cs, v *float32, n8, alpha, stride int)
