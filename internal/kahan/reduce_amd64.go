package kahan

// reduceAVX2 runs the Sum32 update of ReduceBucketsRange on elements
// [lo, lo+n8) of the nb buckets at buckets, eight lanes per YMM register,
// and stores each sum at dst[i−lo]; n8 is a positive multiple of 8.
//
//go:noescape
func reduceAVX2(dst *float32, buckets *[]float32, nb, lo, n8 int)
