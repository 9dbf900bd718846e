//go:build !amd64

package core

func ewmBlockAVX2(v, w, x *float32, oc, ic, n8, tc, first int) {
	panic("core: AVX2 EWM kernel called off amd64")
}

func outputRowsAVX2(out, a, v *float32, n, alpha, width, stride int) {
	panic("core: AVX2 output kernel called off amd64")
}

func ewmDiagAVX2(v, w, x *float32, n8 int) {
	panic("core: AVX2 diagonal EWM kernel called off amd64")
}
