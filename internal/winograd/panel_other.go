//go:build !amd64

package winograd

func mulPanelAVX2(out, in *float32, groups []panelGroup, ops []panelOp, width, n8 int) {
	panic("winograd: AVX2 transform kernel called off amd64")
}
