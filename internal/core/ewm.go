package core

// ewmPanel computes ve[a][b] += we[a]·xe[b] with 4×4 register blocking:
// four Ŵ values and four X̂ values are held across a 16-term inner body,
// so each Ŵ load amortizes over 4 columns and each X̂ load over 4 rows. Row
// blocks whose four Ŵ values are all zero are skipped wholesale (the
// common case under Winograd sparsity); remainder rows keep the per-row
// zero skip. The three-index slice expressions pin each row's length to ic
// so the compiler can hoist the bounds checks out of the inner loop. The
// float32 conversions round each product, which keeps the compiler from
// fusing it into the sum on FMA targets.
func ewmPanel(ve, we, xe []float32, oc, ic int) {
	a := 0
	for ; a+4 <= oc; a += 4 {
		w0, w1, w2, w3 := we[a], we[a+1], we[a+2], we[a+3]
		if w0 == 0 && w1 == 0 && w2 == 0 && w3 == 0 {
			continue
		}
		r0 := ve[(a+0)*ic : (a+0)*ic+ic : (a+0)*ic+ic]
		r1 := ve[(a+1)*ic : (a+1)*ic+ic : (a+1)*ic+ic]
		r2 := ve[(a+2)*ic : (a+2)*ic+ic : (a+2)*ic+ic]
		r3 := ve[(a+3)*ic : (a+3)*ic+ic : (a+3)*ic+ic]
		b := 0
		for ; b+4 <= ic; b += 4 {
			x0, x1, x2, x3 := xe[b], xe[b+1], xe[b+2], xe[b+3]
			r0[b] += float32(w0 * x0)
			r0[b+1] += float32(w0 * x1)
			r0[b+2] += float32(w0 * x2)
			r0[b+3] += float32(w0 * x3)
			r1[b] += float32(w1 * x0)
			r1[b+1] += float32(w1 * x1)
			r1[b+2] += float32(w1 * x2)
			r1[b+3] += float32(w1 * x3)
			r2[b] += float32(w2 * x0)
			r2[b+1] += float32(w2 * x1)
			r2[b+2] += float32(w2 * x2)
			r2[b+3] += float32(w2 * x3)
			r3[b] += float32(w3 * x0)
			r3[b+1] += float32(w3 * x1)
			r3[b+2] += float32(w3 * x2)
			r3[b+3] += float32(w3 * x3)
		}
		for ; b < ic; b++ {
			xv := xe[b]
			r0[b] += float32(w0 * xv)
			r1[b] += float32(w1 * xv)
			r2[b] += float32(w2 * xv)
			r3[b] += float32(w3 * xv)
		}
	}
	for ; a < oc; a++ {
		wv := we[a]
		if wv == 0 {
			continue
		}
		row := ve[a*ic : a*ic+ic : a*ic+ic]
		for b, xv := range xe {
			row[b] += float32(wv * xv)
		}
	}
}
