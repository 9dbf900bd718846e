#include "textflag.h"

// Every lane runs the scalar Go sequence of the loop it replaces: one
// VMULPS, then one VADDPS, per term. Never VFMADD*: a fused multiply-add
// rounds once where the Go loops round twice, and the bits would change.

// func ewmRank1AVX2(v, w, x *float32, oc, ic, n8 int)
TEXT ·ewmRank1AVX2(SB), NOSPLIT, $0-48
	MOVQ v+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ oc+24(FP), CX
	MOVQ ic+32(FP), R8
	MOVQ n8+40(FP), R9
	SHLQ $2, R8                    // row stride, bytes
	SHLQ $2, R9                    // bytes per row to update
	MOVQ R9, R10
	ANDQ $-128, R10                // bytes covered by 32-lane steps
	TESTQ CX, CX
	JZ   done

row:
	MOVL (SI), AX
	SHLL $1, AX                    // drop the sign: zero iff w[a] is ±0
	JZ   next
	VBROADCASTSS (SI), Y0
	XORQ BX, BX

loop32:
	CMPQ BX, R10
	JEQ  loop8
	VMULPS (DX)(BX*1), Y0, Y1
	VMULPS 32(DX)(BX*1), Y0, Y2
	VMULPS 64(DX)(BX*1), Y0, Y3
	VMULPS 96(DX)(BX*1), Y0, Y4
	VADDPS (DI)(BX*1), Y1, Y1
	VADDPS 32(DI)(BX*1), Y2, Y2
	VADDPS 64(DI)(BX*1), Y3, Y3
	VADDPS 96(DI)(BX*1), Y4, Y4
	VMOVUPS Y1, (DI)(BX*1)
	VMOVUPS Y2, 32(DI)(BX*1)
	VMOVUPS Y3, 64(DI)(BX*1)
	VMOVUPS Y4, 96(DI)(BX*1)
	ADDQ $128, BX
	JMP  loop32

loop8:
	CMPQ BX, R9
	JEQ  next
	VMULPS (DX)(BX*1), Y0, Y1
	VADDPS (DI)(BX*1), Y1, Y1
	VMOVUPS Y1, (DI)(BX*1)
	ADDQ $32, BX
	JMP  loop8

next:
	ADDQ $4, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  row

done:
	VZEROUPPER
	RET

// func outputRowAVX2(row, cs, v *float32, n8, alpha, stride int)
//
// Each lane starts at +0 and adds cs[e]·v[e·stride+b] in ascending e.
// Chunks go four 8-lane registers at a time, then one at a time.
TEXT ·outputRowAVX2(SB), NOSPLIT, $0-48
	MOVQ row+0(FP), DI
	MOVQ cs+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ n8+24(FP), R9
	MOVQ alpha+32(FP), CX
	MOVQ stride+40(FP), R8
	SHLQ $2, R9                    // bytes to produce
	SHLQ $2, R8                    // stride, bytes
	MOVQ R9, R10
	ANDQ $-128, R10                // bytes covered by 32-lane steps
	XORQ BX, BX                    // byte offset of the current chunk

loop32:
	CMPQ BX, R10
	JEQ  loop8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ (DX)(BX*1), R11           // &v[e·stride+b], e = 0
	MOVQ SI, R12
	MOVQ CX, R13

term32:
	VBROADCASTSS (R12), Y4
	VMULPS (R11), Y4, Y5
	VMULPS 32(R11), Y4, Y6
	VMULPS 64(R11), Y4, Y7
	VMULPS 96(R11), Y4, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	ADDQ $4, R12
	ADDQ R8, R11
	DECQ R13
	JNZ  term32
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	VMOVUPS Y2, 64(DI)(BX*1)
	VMOVUPS Y3, 96(DI)(BX*1)
	ADDQ $128, BX
	JMP  loop32

loop8:
	CMPQ BX, R9
	JEQ  done
	VXORPS Y0, Y0, Y0
	LEAQ (DX)(BX*1), R11
	MOVQ SI, R12
	MOVQ CX, R13

term8:
	VBROADCASTSS (R12), Y4
	VMULPS (R11), Y4, Y5
	VADDPS Y5, Y0, Y0
	ADDQ $4, R12
	ADDQ R8, R11
	DECQ R13
	JNZ  term8
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	JMP  loop8

done:
	VZEROUPPER
	RET
