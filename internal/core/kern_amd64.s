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

	PCALIGN $32

quad:
	CMPQ CX, $4
	JLT  single
	XORQ BX, BX                    // byte offset of the current column block

	PCALIGN $32

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

	PCALIGN $32

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

	PCALIGN $32

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

	PCALIGN $32

single:
	TESTQ CX, CX
	JZ   done
	XORQ BX, BX

	PCALIGN $32

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

	PCALIGN $32

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

	PCALIGN $32

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

// func outputRowsAVX2(out, a, v *float32, n, alpha, width, stride int)
//
// a is the output matrix, [alpha][n]; out is n rows of width floats and v
// alpha rows at stride floats. The row sums of a column block stay in
// registers across all alpha terms, and each term loads v[e][block] once
// for all n rows. Each lane starts at +0 and adds a[e][i]·v[e][b] in
// ascending e. With n ≤ 6 the blocks are 16 columns wide: row i's sums
// are Y(2i) and Y(2i+1), Y12/Y13 hold v[e][block], Y14 the broadcast
// a[e][i] and Y15 a product. Then, and for every block when n > 6, the
// blocks are 8 columns wide: row i's sum is Yi (n ≤ 13) and Y13 holds
// v[e][block]. The compare ladders stop after row n−1; their branches go
// the same way for a whole call. R13 walks v[e][block] and R14 a[e]
// across the terms, up to the end of a in R9.

// ROW adds row i's term to its sum S, ROW2 to its sums S0 and S1; OFF is
// 4·i, the coefficient's byte offset in a[e].
#define ROW(OFF, S) VBROADCASTSS OFF(R14), Y14; VMULPS Y13, Y14, Y15; VADDPS Y15, S, S
#define ROW2(OFF, S0, S1) VBROADCASTSS OFF(R14), Y14; VMULPS Y12, Y14, Y15; VADDPS Y15, S0, S0; VMULPS Y13, Y14, Y15; VADDPS Y15, S1, S1

TEXT ·outputRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ alpha+32(FP), R9
	MOVQ width+40(FP), R8
	MOVQ stride+48(FP), R10
	MOVQ CX, R11
	SHLQ $2, R11                   // a row stride, bytes
	IMULQ R11, R9
	ADDQ SI, R9                    // end of a
	SHLQ $2, R8                    // out row stride, bytes
	SHLQ $2, R10                   // v row stride, bytes
	XORQ BX, BX                    // byte offset of the current block
	XORQ R12, R12                  // bytes of 16-column blocks: none when n > 6
	CMPQ CX, $6
	JGT  pairs
	MOVQ R8, R12
	ANDQ $-64, R12

	PCALIGN $32

pairs:
	CMPQ BX, R12
	JEQ  singles
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	CMPQ CX, $1
	JEQ  zeroed16
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPQ CX, $2
	JEQ  zeroed16
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	CMPQ CX, $3
	JEQ  zeroed16
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	CMPQ CX, $4
	JEQ  zeroed16
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	CMPQ CX, $5
	JEQ  zeroed16
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

zeroed16:
	LEAQ (DX)(BX*1), R13
	MOVQ SI, R14

	PCALIGN $32

term16:
	VMOVUPS (R13), Y12
	VMOVUPS 32(R13), Y13
	ROW2(0, Y0, Y1)
	CMPQ CX, $1
	JEQ  next16
	ROW2(4, Y2, Y3)
	CMPQ CX, $2
	JEQ  next16
	ROW2(8, Y4, Y5)
	CMPQ CX, $3
	JEQ  next16
	ROW2(12, Y6, Y7)
	CMPQ CX, $4
	JEQ  next16
	ROW2(16, Y8, Y9)
	CMPQ CX, $5
	JEQ  next16
	ROW2(20, Y10, Y11)

next16:
	ADDQ R11, R14
	ADDQ R10, R13
	CMPQ R14, R9
	JNE  term16
	LEAQ (DI)(BX*1), AX
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	CMPQ CX, $1
	JEQ  stored16
	ADDQ R8, AX
	VMOVUPS Y2, (AX)
	VMOVUPS Y3, 32(AX)
	CMPQ CX, $2
	JEQ  stored16
	ADDQ R8, AX
	VMOVUPS Y4, (AX)
	VMOVUPS Y5, 32(AX)
	CMPQ CX, $3
	JEQ  stored16
	ADDQ R8, AX
	VMOVUPS Y6, (AX)
	VMOVUPS Y7, 32(AX)
	CMPQ CX, $4
	JEQ  stored16
	ADDQ R8, AX
	VMOVUPS Y8, (AX)
	VMOVUPS Y9, 32(AX)
	CMPQ CX, $5
	JEQ  stored16
	ADDQ R8, AX
	VMOVUPS Y10, (AX)
	VMOVUPS Y11, 32(AX)

stored16:
	ADDQ $64, BX
	JMP  pairs

singles:
	MOVQ R8, R12
	ANDQ $-32, R12                 // bytes of whole 8-column blocks

	PCALIGN $32

block:
	CMPQ BX, R12
	JEQ  done
	VXORPS Y0, Y0, Y0
	CMPQ CX, $1
	JEQ  zeroed
	VXORPS Y1, Y1, Y1
	CMPQ CX, $2
	JEQ  zeroed
	VXORPS Y2, Y2, Y2
	CMPQ CX, $3
	JEQ  zeroed
	VXORPS Y3, Y3, Y3
	CMPQ CX, $4
	JEQ  zeroed
	VXORPS Y4, Y4, Y4
	CMPQ CX, $5
	JEQ  zeroed
	VXORPS Y5, Y5, Y5
	CMPQ CX, $6
	JEQ  zeroed
	VXORPS Y6, Y6, Y6
	CMPQ CX, $7
	JEQ  zeroed
	VXORPS Y7, Y7, Y7
	CMPQ CX, $8
	JEQ  zeroed
	VXORPS Y8, Y8, Y8
	CMPQ CX, $9
	JEQ  zeroed
	VXORPS Y9, Y9, Y9
	CMPQ CX, $10
	JEQ  zeroed
	VXORPS Y10, Y10, Y10
	CMPQ CX, $11
	JEQ  zeroed
	VXORPS Y11, Y11, Y11
	CMPQ CX, $12
	JEQ  zeroed
	VXORPS Y12, Y12, Y12

zeroed:
	LEAQ (DX)(BX*1), R13
	MOVQ SI, R14

	PCALIGN $32

term:
	VMOVUPS (R13), Y13
	ROW(0, Y0)
	CMPQ CX, $1
	JEQ  next
	ROW(4, Y1)
	CMPQ CX, $2
	JEQ  next
	ROW(8, Y2)
	CMPQ CX, $3
	JEQ  next
	ROW(12, Y3)
	CMPQ CX, $4
	JEQ  next
	ROW(16, Y4)
	CMPQ CX, $5
	JEQ  next
	ROW(20, Y5)
	CMPQ CX, $6
	JEQ  next
	ROW(24, Y6)
	CMPQ CX, $7
	JEQ  next
	ROW(28, Y7)
	CMPQ CX, $8
	JEQ  next
	ROW(32, Y8)
	CMPQ CX, $9
	JEQ  next
	ROW(36, Y9)
	CMPQ CX, $10
	JEQ  next
	ROW(40, Y10)
	CMPQ CX, $11
	JEQ  next
	ROW(44, Y11)
	CMPQ CX, $12
	JEQ  next
	ROW(48, Y12)

next:
	ADDQ R11, R14
	ADDQ R10, R13
	CMPQ R14, R9
	JNE  term
	LEAQ (DI)(BX*1), AX
	VMOVUPS Y0, (AX)
	CMPQ CX, $1
	JEQ  stored
	ADDQ R8, AX
	VMOVUPS Y1, (AX)
	CMPQ CX, $2
	JEQ  stored
	ADDQ R8, AX
	VMOVUPS Y2, (AX)
	CMPQ CX, $3
	JEQ  stored
	ADDQ R8, AX
	VMOVUPS Y3, (AX)
	CMPQ CX, $4
	JEQ  stored
	ADDQ R8, AX
	VMOVUPS Y4, (AX)
	CMPQ CX, $5
	JEQ  stored
	ADDQ R8, AX
	VMOVUPS Y5, (AX)
	CMPQ CX, $6
	JEQ  stored
	ADDQ R8, AX
	VMOVUPS Y6, (AX)
	CMPQ CX, $7
	JEQ  stored
	ADDQ R8, AX
	VMOVUPS Y7, (AX)
	CMPQ CX, $8
	JEQ  stored
	ADDQ R8, AX
	VMOVUPS Y8, (AX)
	CMPQ CX, $9
	JEQ  stored
	ADDQ R8, AX
	VMOVUPS Y9, (AX)
	CMPQ CX, $10
	JEQ  stored
	ADDQ R8, AX
	VMOVUPS Y10, (AX)
	CMPQ CX, $11
	JEQ  stored
	ADDQ R8, AX
	VMOVUPS Y11, (AX)
	CMPQ CX, $12
	JEQ  stored
	ADDQ R8, AX
	VMOVUPS Y12, (AX)

stored:
	ADDQ $32, BX
	JMP  block

done:
	VZEROUPPER
	RET

// func ewmDiagAVX2(v, w, x *float32, n8 int)
//
// For i < n8 (a positive multiple of 8): v[i] += w[i]·x[i] where w[i] is
// not ±0, ewmDiagGo's sequence in every lane. P = w·x (VMULPS) and
// S = v + P (VADDPS) run in every lane; a mask of w ≠ +0 (VCMPPS NEQ_UQ,
// true for a NaN w as Go's != is, false for ±0) then picks S over v
// (VBLENDVPS), so a skipped lane keeps v's bits and 0·Inf never lands.
// Steps cover 32 elements, then 8. Y15 holds +0.

// DIAG updates the 8 elements at byte offset OFF of the step; W, P and V
// hold w (then the mask), the product (then S) and v.
#define DIAG(OFF, W, P, V) \
	VMOVUPS   OFF(SI)(BX*1), W; \
	VMULPS    OFF(DX)(BX*1), W, P; \
	VMOVUPS   OFF(DI)(BX*1), V; \
	VADDPS    P, V, P; \
	VCMPPS    $4, Y15, W, W; \
	VBLENDVPS W, P, V, V; \
	VMOVUPS   V, OFF(DI)(BX*1)

TEXT ·ewmDiagAVX2(SB), NOSPLIT, $0-32
	MOVQ v+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ n8+24(FP), R9
	SHLQ $2, R9                    // bytes the kernel covers
	MOVQ R9, R10
	ANDQ $-128, R10                // bytes of 32-element steps
	XORQ BX, BX                    // byte offset of the current step
	VXORPS Y15, Y15, Y15

	PCALIGN $32

diag32:
	CMPQ BX, R10
	JEQ  diag8
	DIAG(0, Y0, Y1, Y2)
	DIAG(32, Y3, Y4, Y5)
	DIAG(64, Y6, Y7, Y8)
	DIAG(96, Y9, Y10, Y11)
	ADDQ $128, BX
	JMP  diag32

	PCALIGN $32

diag8:
	CMPQ BX, R9
	JEQ  diagdone
	DIAG(0, Y0, Y1, Y2)
	ADDQ $32, BX
	JMP  diag8

diagdone:
	VZEROUPPER
	RET
