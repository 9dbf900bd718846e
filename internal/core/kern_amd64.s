#include "textflag.h"

// Every lane runs the scalar Go sequence of the loop it replaces: one
// VMULPS, then one VADDPS, per term. Never VFMADD*: a fused multiply-add
// rounds once where the Go loops round twice, and the bits would change.

// func ewmBlockAVX2(v, w, x *float32, oc, ic, n8, tc, first int)
//
// v is [oc][ic], w [tc][oc] and x [tc][ic]. For each block of 4 rows × 16
// columns (then 4 × 8, then single rows) the sums stay in Y0–Y7 across all
// tc tiles, in tile order, and are stored once: they start from the block
// in v, or from +0 when first ≠ 0, in which case v is never read. A
// (tile, row) term is skipped when w[t][a] is ±0. Y8/Y9 hold x[t][b:b+16],
// Y10 the broadcast w[t][a] and Y11 a product; R12 walks w[t][a0] and R13
// x[t][b] across the tiles, and R10 counts them.

// TERM adds Y10·X to the sums A: the product's first operand is w and the
// sum's first operand the product, as in ewmPanel's rows.
#define TERM(X, A) VMULPS X, Y10, Y11; VADDPS A, Y11, A

TEXT ·ewmBlockAVX2(SB), NOSPLIT, $0-64
	MOVQ v+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ oc+24(FP), CX
	MOVQ ic+32(FP), R8
	MOVQ n8+40(FP), R9
	MOVQ CX, R11
	SHLQ $2, R8                    // v and x row stride, bytes
	SHLQ $2, R9                    // bytes per row the kernel covers
	SHLQ $2, R11                   // w tile stride, bytes

quad:
	CMPQ CX, $4
	JLT  single
	XORQ BX, BX                    // byte offset of the current column block

q16:
	LEAQ 64(BX), AX
	CMPQ AX, R9
	JGT  q8
	LEAQ (DI)(BX*1), R12
	CMPQ first+56(FP), $0
	JNE  q16zero
	LEAQ (R12)(R8*2), R13
	VMOVUPS (R12), Y0
	VMOVUPS 32(R12), Y1
	VMOVUPS (R12)(R8*1), Y2
	VMOVUPS 32(R12)(R8*1), Y3
	VMOVUPS (R13), Y4
	VMOVUPS 32(R13), Y5
	VMOVUPS (R13)(R8*1), Y6
	VMOVUPS 32(R13)(R8*1), Y7
	JMP  q16go

q16zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

q16go:
	MOVQ SI, R12
	LEAQ (DX)(BX*1), R13
	MOVQ tc+48(FP), R10

q16tile:
	VMOVUPS (R13), Y8
	VMOVUPS 32(R13), Y9
	TESTL $0x7fffffff, (R12)       // zero iff w[t][a0] is ±0
	JZ   q16r1
	VBROADCASTSS (R12), Y10
	TERM(Y8, Y0)
	TERM(Y9, Y1)

q16r1:
	TESTL $0x7fffffff, 4(R12)
	JZ   q16r2
	VBROADCASTSS 4(R12), Y10
	TERM(Y8, Y2)
	TERM(Y9, Y3)

q16r2:
	TESTL $0x7fffffff, 8(R12)
	JZ   q16r3
	VBROADCASTSS 8(R12), Y10
	TERM(Y8, Y4)
	TERM(Y9, Y5)

q16r3:
	TESTL $0x7fffffff, 12(R12)
	JZ   q16t
	VBROADCASTSS 12(R12), Y10
	TERM(Y8, Y6)
	TERM(Y9, Y7)

q16t:
	ADDQ R11, R12
	ADDQ R8, R13
	DECQ R10
	JNZ  q16tile
	LEAQ (DI)(BX*1), R12
	LEAQ (R12)(R8*2), R13
	VMOVUPS Y0, (R12)
	VMOVUPS Y1, 32(R12)
	VMOVUPS Y2, (R12)(R8*1)
	VMOVUPS Y3, 32(R12)(R8*1)
	VMOVUPS Y4, (R13)
	VMOVUPS Y5, 32(R13)
	VMOVUPS Y6, (R13)(R8*1)
	VMOVUPS Y7, 32(R13)(R8*1)
	ADDQ $64, BX
	JMP  q16

q8:
	CMPQ BX, R9                    // n8 is a multiple of 8: at most one 8-column block is left
	JEQ  qnext
	LEAQ (DI)(BX*1), R12
	CMPQ first+56(FP), $0
	JNE  q8zero
	LEAQ (R12)(R8*2), R13
	VMOVUPS (R12), Y0
	VMOVUPS (R12)(R8*1), Y2
	VMOVUPS (R13), Y4
	VMOVUPS (R13)(R8*1), Y6
	JMP  q8go

q8zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y2, Y2, Y2
	VXORPS Y4, Y4, Y4
	VXORPS Y6, Y6, Y6

q8go:
	MOVQ SI, R12
	LEAQ (DX)(BX*1), R13
	MOVQ tc+48(FP), R10

q8tile:
	VMOVUPS (R13), Y8
	TESTL $0x7fffffff, (R12)
	JZ   q8r1
	VBROADCASTSS (R12), Y10
	TERM(Y8, Y0)

q8r1:
	TESTL $0x7fffffff, 4(R12)
	JZ   q8r2
	VBROADCASTSS 4(R12), Y10
	TERM(Y8, Y2)

q8r2:
	TESTL $0x7fffffff, 8(R12)
	JZ   q8r3
	VBROADCASTSS 8(R12), Y10
	TERM(Y8, Y4)

q8r3:
	TESTL $0x7fffffff, 12(R12)
	JZ   q8t
	VBROADCASTSS 12(R12), Y10
	TERM(Y8, Y6)

q8t:
	ADDQ R11, R12
	ADDQ R8, R13
	DECQ R10
	JNZ  q8tile
	LEAQ (DI)(BX*1), R12
	LEAQ (R12)(R8*2), R13
	VMOVUPS Y0, (R12)
	VMOVUPS Y2, (R12)(R8*1)
	VMOVUPS Y4, (R13)
	VMOVUPS Y6, (R13)(R8*1)

qnext:
	LEAQ (DI)(R8*4), DI
	ADDQ $16, SI
	SUBQ $4, CX
	JMP  quad

single:
	TESTQ CX, CX
	JZ   done
	XORQ BX, BX

s16:
	LEAQ 64(BX), AX
	CMPQ AX, R9
	JGT  s8
	CMPQ first+56(FP), $0
	JNE  s16zero
	VMOVUPS (DI)(BX*1), Y0
	VMOVUPS 32(DI)(BX*1), Y1
	JMP  s16go

s16zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

s16go:
	MOVQ SI, R12
	LEAQ (DX)(BX*1), R13
	MOVQ tc+48(FP), R10

s16tile:
	TESTL $0x7fffffff, (R12)
	JZ   s16t
	VBROADCASTSS (R12), Y10
	VMULPS (R13), Y10, Y11
	VADDPS Y0, Y11, Y0
	VMULPS 32(R13), Y10, Y11
	VADDPS Y1, Y11, Y1

s16t:
	ADDQ R11, R12
	ADDQ R8, R13
	DECQ R10
	JNZ  s16tile
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	ADDQ $64, BX
	JMP  s16

s8:
	CMPQ BX, R9
	JEQ  snext
	CMPQ first+56(FP), $0
	JNE  s8zero
	VMOVUPS (DI)(BX*1), Y0
	JMP  s8go

s8zero:
	VXORPS Y0, Y0, Y0

s8go:
	MOVQ SI, R12
	LEAQ (DX)(BX*1), R13
	MOVQ tc+48(FP), R10

s8tile:
	TESTL $0x7fffffff, (R12)
	JZ   s8t
	VBROADCASTSS (R12), Y10
	VMULPS (R13), Y10, Y11
	VADDPS Y0, Y11, Y0

s8t:
	ADDQ R11, R12
	ADDQ R8, R13
	DECQ R10
	JNZ  s8tile
	VMOVUPS Y0, (DI)(BX*1)

snext:
	ADDQ R8, DI
	ADDQ $4, SI
	DECQ CX
	JMP  single

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
