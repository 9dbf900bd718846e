package winograd

// mulPanelAVX2 is the AVX2 body of SymPlan.MulPanel: it runs the compiled
// groups and ops of a plan on columns b < n8 (a positive multiple of 8 no
// larger than width) of in, [m.Cols][width], into out, [m.Rows][width].
// in and out must not overlap.
//
//go:noescape
func mulPanelAVX2(out, in *float32, groups []panelGroup, ops []panelOp, width, n8 int)
