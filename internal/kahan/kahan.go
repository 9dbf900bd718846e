// Package kahan provides compensated summation.
//
// WinRS sums Z partition buckets into the final filter gradient with FP32
// Kahan summation to bound the error of long accumulations (paper §5.2,
// "Accuracy Optimization"). This package implements both the classic Kahan
// accumulator and the Neumaier variant (which also handles addends larger
// than the running sum) for float32 and float64, plus slice-wise reducers
// used by the bucket-reduction kernel.
package kahan

import "winrs/internal/cpufeat"

// Sum32 is a float32 Kahan (compensated) accumulator. The zero value is an
// accumulator holding 0.
type Sum32 struct {
	sum float32
	c   float32 // running compensation for lost low-order bits
}

// Add folds v into the accumulator.
func (k *Sum32) Add(v float32) {
	y := v - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Value returns the current compensated sum.
func (k *Sum32) Value() float32 { return k.sum }

// Reset clears the accumulator to 0.
func (k *Sum32) Reset() { k.sum, k.c = 0, 0 }

// Sum64 is a float64 Kahan accumulator. The zero value holds 0.
type Sum64 struct {
	sum float64
	c   float64
}

// Add folds v into the accumulator.
func (k *Sum64) Add(v float64) {
	y := v - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Value returns the current compensated sum.
func (k *Sum64) Value() float64 { return k.sum }

// Reset clears the accumulator to 0.
func (k *Sum64) Reset() { k.sum, k.c = 0, 0 }

// Neumaier32 is Neumaier's improved compensated accumulator: unlike plain
// Kahan it stays accurate when an addend exceeds the running sum in
// magnitude. The zero value holds 0.
type Neumaier32 struct {
	sum float32
	c   float32
}

// Add folds v into the accumulator.
func (n *Neumaier32) Add(v float32) {
	t := n.sum + v
	if abs32(n.sum) >= abs32(v) {
		n.c += (n.sum - t) + v
	} else {
		n.c += (v - t) + n.sum
	}
	n.sum = t
}

// Value returns the compensated sum including the correction term.
func (n *Neumaier32) Value() float32 { return n.sum + n.c }

// Reset clears the accumulator to 0.
func (n *Neumaier32) Reset() { n.sum, n.c = 0, 0 }

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// SumSlice32 returns the Kahan-compensated sum of xs.
func SumSlice32(xs []float32) float32 {
	var k Sum32
	for _, v := range xs {
		k.Add(v)
	}
	return k.Value()
}

// SumSlice64 returns the Kahan-compensated sum of xs.
func SumSlice64(xs []float64) float64 {
	var k Sum64
	for _, v := range xs {
		k.Add(v)
	}
	return k.Value()
}

// ReduceBuckets sums Z equally-sized float32 buckets element-wise into dst
// using Kahan compensation per element. It is the scalar model of WinRS's
// bucket-reduction kernel: dst[i] = Σ_z buckets[z][i]. Every bucket must
// have len(dst) elements.
func ReduceBuckets(dst []float32, buckets [][]float32) {
	for _, b := range buckets {
		if len(b) != len(dst) {
			panic("kahan: ReduceBuckets bucket length mismatch")
		}
	}
	ReduceBucketsRange(dst, buckets, 0, len(dst))
}

// reduceBlock is the element block reduceRangeGo keeps its running
// sums and compensations for on the stack (2 KiB).
const reduceBlock = 256

// ReduceBucketsRange is ReduceBuckets restricted to elements [lo, hi), so
// disjoint ranges can be reduced concurrently. Each element runs the Sum32
// update over its buckets in bucket order, so any split of the range
// yields the same bits. On an AVX2 host the AVX2 kernel takes the largest
// multiple of 8 elements and reduceRangeGo the rest; each lane runs the
// scalar sequence, so the bits do not depend on the host. Every bucket
// and dst must hold at least hi elements. dst may be buckets[0]: both
// kernels read every bucket of an element block before the block's one
// store, so reducing in place gives the same bits as into a separate dst.
func ReduceBucketsRange(dst []float32, buckets [][]float32, lo, hi int) {
	if n8 := (hi - lo) &^ 7; cpufeat.HasAVX2 && n8 > 0 && len(buckets) > 0 {
		// The kernel checks no bounds; these slicings do.
		_ = dst[lo:hi]
		for _, b := range buckets {
			_ = b[lo:hi]
		}
		reduceAVX2(&dst[lo], &buckets[0], len(buckets), lo, n8)
		lo += n8
	}
	if lo < hi { // reduceRangeGo zeroes 2 KiB of block sums on entry
		reduceRangeGo(dst, buckets, lo, hi)
	}
}

// reduceRangeGo is the portable ReduceBucketsRange and the AVX2 kernel's
// oracle. It streams bucket by bucket over blocks of elements, keeping
// each element's sum and compensation in a block array: the per-element
// updates are independent, so they pipeline instead of waiting on one
// element's dependency chain.
func reduceRangeGo(dst []float32, buckets [][]float32, lo, hi int) {
	var sums, comps [reduceBlock]float32
	for b0 := lo; b0 < hi; b0 += reduceBlock {
		sum := sums[:min(reduceBlock, hi-b0)]
		comp := comps[:len(sum)]
		clear(sum)
		clear(comp)
		for _, b := range buckets {
			for i, v := range b[b0:][:len(sum)] {
				y := v - comp[i]
				t := sum[i] + y
				comp[i] = (t - sum[i]) - y
				sum[i] = t
			}
		}
		copy(dst[b0:], sum)
	}
}

// ReduceBucketsNaive is ReduceBuckets without compensation; it exists for
// the accuracy ablation contrasting Kahan with naive reduction.
func ReduceBucketsNaive(dst []float32, buckets [][]float32) {
	for _, b := range buckets {
		if len(b) != len(dst) {
			panic("kahan: ReduceBucketsNaive bucket length mismatch")
		}
	}
	for i := range dst {
		var s float32
		for _, b := range buckets {
			s += b[i]
		}
		dst[i] = s
	}
}
