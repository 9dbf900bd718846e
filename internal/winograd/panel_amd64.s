#include "textflag.h"

// func mulPanelAVX2(out, in *float32, groups []panelGroup, ops []panelOp, width, n8 int)
//
// Every lane runs mulPanelGo's chains: each starts at +0 and adds c·x over
// its ops in order, one VMULPS then one VADDPS per term (never VFMADD*: a
// fused multiply-add rounds once where the Go loop rounds twice). A pair
// stores u = E + O and v = E − O from its even sums E and odd sums O, a
// single its one sum. The ops hold no zero coefficient, so no lane tests
// one. Blocks are 32 columns wide, then 8; per block every group runs in
// turn, re-reading the block's input rows from L1. E is Y0–Y3 and O Y4–Y7
// (one register each in an 8-column block), Y8 holds the broadcast
// coefficient and Y9–Y12 the products. R13 and R14 point at the block in
// row 0 of in and out, R11 walks the groups and R12 the ops; R8 is the
// row stride in bytes.

// OP32 adds the term at R12 to the sums S0–S3 of a 32-column block and
// steps R12 to the next op.
#define OP32(S0, S1, S2, S3) \
	MOVLQSX (R12), AX; \
	IMULQ   R8, AX; \
	VBROADCASTSS 4(R12), Y8; \
	VMULPS  (R13)(AX*1), Y8, Y9; \
	VMULPS  32(R13)(AX*1), Y8, Y10; \
	VMULPS  64(R13)(AX*1), Y8, Y11; \
	VMULPS  96(R13)(AX*1), Y8, Y12; \
	VADDPS  Y9, S0, S0; \
	VADDPS  Y10, S1, S1; \
	VADDPS  Y11, S2, S2; \
	VADDPS  Y12, S3, S3; \
	ADDQ    $8, R12

// OP8 is OP32 for the one sum S of an 8-column block.
#define OP8(S) \
	MOVLQSX (R12), AX; \
	IMULQ   R8, AX; \
	VBROADCASTSS 4(R12), Y8; \
	VMULPS  (R13)(AX*1), Y8, Y9; \
	VADDPS  Y9, S, S; \
	ADDQ    $8, R12

// PM stores E+O of one register pair at OFF in output row u (AX) and E−O
// in row v (DX).
#define PM(E, O, OFF) \
	VADDPS  O, E, Y8; \
	VSUBPS  O, E, E; \
	VMOVUPS Y8, OFF(AX); \
	VMOVUPS E, OFF(DX)

TEXT ·mulPanelAVX2(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ width+64(FP), R8
	MOVQ n8+72(FP), R9
	CMPQ groups_len+24(FP), $0
	JEQ  done
	SHLQ $2, R8                    // row stride, bytes
	SHLQ $2, R9                    // bytes per row the kernel covers
	MOVQ R9, R10
	ANDQ $-128, R10                // bytes of 32-column blocks
	XORQ BX, BX                    // byte offset of the current block

	PCALIGN $32

block32:
	CMPQ BX, R10
	JEQ  block8
	LEAQ (SI)(BX*1), R13
	LEAQ (DI)(BX*1), R14
	MOVQ groups_base+16(FP), R11
	MOVQ groups_len+24(FP), CX
	MOVQ ops_base+40(FP), R12

	PCALIGN $32

group32:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVL  8(R11), DX               // even chain length
	TESTL DX, DX
	JZ    even32done

	PCALIGN $32

even32:
	OP32(Y0, Y1, Y2, Y3)
	DECL DX
	JNZ  even32

even32done:
	CMPL 4(R11), $0
	JLT  single32                  // v < 0: a single
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVL  12(R11), DX              // odd chain length
	TESTL DX, DX
	JZ    odd32done

	PCALIGN $32

odd32:
	OP32(Y4, Y5, Y6, Y7)
	DECL DX
	JNZ  odd32

odd32done:
	MOVLQSX (R11), AX
	IMULQ   R8, AX
	ADDQ    R14, AX                // row u at the block
	MOVLQSX 4(R11), DX
	IMULQ   R8, DX
	ADDQ    R14, DX                // row v at the block
	PM(Y0, Y4, 0)
	PM(Y1, Y5, 32)
	PM(Y2, Y6, 64)
	PM(Y3, Y7, 96)
	JMP  next32

single32:
	MOVLQSX (R11), AX
	IMULQ   R8, AX
	ADDQ    R14, AX
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, 64(AX)
	VMOVUPS Y3, 96(AX)

next32:
	ADDQ $16, R11
	DECQ CX
	JNZ  group32
	ADDQ $128, BX
	JMP  block32

	PCALIGN $32

block8:
	CMPQ BX, R9
	JEQ  done
	LEAQ (SI)(BX*1), R13
	LEAQ (DI)(BX*1), R14
	MOVQ groups_base+16(FP), R11
	MOVQ groups_len+24(FP), CX
	MOVQ ops_base+40(FP), R12

	PCALIGN $32

group8:
	VXORPS Y0, Y0, Y0
	MOVL  8(R11), DX
	TESTL DX, DX
	JZ    even8done

	PCALIGN $32

even8:
	OP8(Y0)
	DECL DX
	JNZ  even8

even8done:
	CMPL 4(R11), $0
	JLT  single8
	VXORPS Y4, Y4, Y4
	MOVL  12(R11), DX
	TESTL DX, DX
	JZ    odd8done

	PCALIGN $32

odd8:
	OP8(Y4)
	DECL DX
	JNZ  odd8

odd8done:
	MOVLQSX (R11), AX
	IMULQ   R8, AX
	ADDQ    R14, AX
	MOVLQSX 4(R11), DX
	IMULQ   R8, DX
	ADDQ    R14, DX
	PM(Y0, Y4, 0)
	JMP  next8

single8:
	MOVLQSX (R11), AX
	IMULQ   R8, AX
	VMOVUPS Y0, (R14)(AX*1)

next8:
	ADDQ $16, R11
	DECQ CX
	JNZ  group8
	ADDQ $32, BX
	JMP  block8

done:
	VZEROUPPER
	RET
