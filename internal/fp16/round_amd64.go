package fp16

// roundF16C is the F16C body of RoundSlice: it rounds vs[0:n8] in place,
// eight lanes per YMM register; n8 is a positive multiple of 8.
//
//go:noescape
func roundF16C(vs *float32, n8 int)
