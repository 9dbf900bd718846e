//go:build !amd64

package fp16

func roundF16C(vs *float32, n8 int) {
	panic("fp16: F16C rounding called off amd64")
}
