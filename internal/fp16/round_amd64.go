package fp16

// roundF16C is the F16C body of RoundSlice: it rounds vs[0:n8] in place,
// eight lanes per YMM register; n8 is a positive multiple of 8.
//
//go:noescape
func roundF16C(vs *float32, n8 int)

// decodeF16C is the F16C body of DecodeSlice: it decodes src[0:n8] into
// dst[0:n8], eight lanes per YMM register, bit-identical to ToFloat32; n8
// is a positive multiple of 8. It needs AVX2 as well as F16C.
//
//go:noescape
func decodeF16C(dst *float32, src *Bits, n8 int)
