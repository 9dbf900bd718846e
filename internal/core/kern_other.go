//go:build !amd64

package core

func ewmBlockAVX2(v, w, x *float32, oc, ic, n8, tc, first int) {
	panic("core: AVX2 EWM kernel called off amd64")
}

func outputRowAVX2(row, cs, v *float32, n8, alpha, stride int) {
	panic("core: AVX2 output row called off amd64")
}
