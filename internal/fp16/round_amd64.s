#include "textflag.h"

// The F16C kernels of the binary16 codec.
//
// roundF16C: each lane converts to binary16 with round-to-nearest-even
// (immediate 0: the rounding mode comes from the immediate, not MXCSR) and
// back. The pair is exact for every float32 pattern, signalling NaNs
// included: VCVTPS2PH quiets them the way FromFloat32 does.
//
// decodeF16C: VCVTPH2PS alone is not a decode oracle, because it sets the
// float32 quiet bit (bit 22) of the 1,022 signalling-NaN halves, which
// ToFloat32 passes through unchanged. Each lane therefore converts, then
// clears bit 22 where the result is NaN (VCMPPS UNORD) and the half's
// quiet bit (bit 9, bit 22 after VPMOVZXWD and a shift by 13) is clear.
// The fix-up runs 256-bit integer ops, so the kernel needs AVX2 as well
// as F16C.

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

// DECODE8 decodes the 8 halves at off(SI)(BX*2) into F: F = VCVTPH2PS(h),
// then F ^= 0x00400000 in the lanes where F is NaN and h's bit 9 is clear.
// H and M are scratch; Y15 holds 0x00400000 in every lane.
#define DECODE8(off, F, H, M) \
	VCVTPH2PS off(SI)(BX*2), F; \
	VPMOVZXWD off(SI)(BX*2), H; \
	VPSLLD    $13, H, H; \
	VPANDN    Y15, H, H; \
	VCMPPS    $3, F, F, M; \
	VPAND     M, H, H; \
	VPXOR     H, F, F

// func decodeF16C(dst *float32, src *Bits, n8 int)
TEXT ·decodeF16C(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n8+16(FP), CX             // halves to decode
	MOVQ CX, R10
	ANDQ $-32, R10                 // halves covered by 32-lane steps
	XORQ BX, BX
	MOVL $0x00400000, AX
	MOVQ AX, X15
	VPBROADCASTD X15, Y15

	PCALIGN $32

dloop32:
	CMPQ BX, R10
	JEQ  dloop8
	DECODE8(0, Y0, Y4, Y8)
	DECODE8(16, Y1, Y5, Y9)
	DECODE8(32, Y2, Y6, Y10)
	DECODE8(48, Y3, Y7, Y11)
	VMOVUPS Y0, (DI)(BX*4)
	VMOVUPS Y1, 32(DI)(BX*4)
	VMOVUPS Y2, 64(DI)(BX*4)
	VMOVUPS Y3, 96(DI)(BX*4)
	ADDQ $32, BX
	JMP  dloop32

	PCALIGN $32

dloop8:
	CMPQ BX, CX
	JEQ  ddone
	DECODE8(0, Y0, Y4, Y8)
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	JMP  dloop8

ddone:
	VZEROUPPER
	RET
