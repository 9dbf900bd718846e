//go:build !amd64

package fp16

func roundF16C(vs *float32, n8 int) {
	panic("fp16: F16C rounding called off amd64")
}

func decodeF16C(dst *float32, src *Bits, n8 int) {
	panic("fp16: F16C decode called off amd64")
}
