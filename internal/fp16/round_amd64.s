#include "textflag.h"

// Each lane converts to binary16 with round-to-nearest-even (immediate 0:
// the rounding mode comes from the immediate, not MXCSR) and back. The
// pair is exact for every float32 pattern, signalling NaNs included:
// VCVTPS2PH quiets them the way FromFloat32 does. VCVTPH2PS alone is not
// a decode oracle, so DecodeSlice keeps its table.

// func roundF16C(vs *float32, n8 int)
TEXT ·roundF16C(SB), NOSPLIT, $0-16
	MOVQ vs+0(FP), DI
	MOVQ n8+8(FP), CX
	SHLQ $2, CX                    // bytes to round
	MOVQ CX, R10
	ANDQ $-128, R10                // bytes covered by 32-lane steps
	XORQ BX, BX

	PCALIGN $32

loop32:
	CMPQ BX, R10
	JEQ  loop8
	VMOVUPS (DI)(BX*1), Y0
	VMOVUPS 32(DI)(BX*1), Y1
	VMOVUPS 64(DI)(BX*1), Y2
	VMOVUPS 96(DI)(BX*1), Y3
	VCVTPS2PH $0, Y0, X0
	VCVTPS2PH $0, Y1, X1
	VCVTPS2PH $0, Y2, X2
	VCVTPS2PH $0, Y3, X3
	VCVTPH2PS X0, Y0
	VCVTPH2PS X1, Y1
	VCVTPH2PS X2, Y2
	VCVTPH2PS X3, Y3
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	VMOVUPS Y2, 64(DI)(BX*1)
	VMOVUPS Y3, 96(DI)(BX*1)
	ADDQ $128, BX
	JMP  loop32

	PCALIGN $32

loop8:
	CMPQ BX, CX
	JEQ  done
	VMOVUPS (DI)(BX*1), Y0
	VCVTPS2PH $0, Y0, X0
	VCVTPH2PS X0, Y0
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	JMP  loop8

done:
	VZEROUPPER
	RET
