//go:build !amd64

package kahan

func reduceAVX2(dst *float32, buckets *[]float32, nb, lo, n8 int) {
	panic("kahan: AVX2 reduce called off amd64")
}
