#include "textflag.h"

// func reduceAVX2(dst *float32, buckets *[]float32, nb, lo, n8 int)
//
// Each 8-lane chunk keeps its sums (Y0–Y3) and compensations (Y4–Y7) in
// registers across all nb buckets, in bucket order, then stores once. Per
// bucket and lane it runs Sum32.Add's sequence: y = v − c, t = s + y,
// c = (t − s) − y, s = t. Chunks go four at a time, then one at a time.
TEXT ·reduceAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ buckets+8(FP), SI
	MOVQ nb+16(FP), CX
	MOVQ lo+24(FP), R8
	MOVQ n8+32(FP), R9
	SHLQ $2, R8                    // byte offset of element lo
	SHLQ $2, R9                    // bytes to reduce
	MOVQ R9, R10
	ANDQ $-128, R10                // bytes covered by 32-lane steps
	XORQ BX, BX                    // byte offset of the current chunk

	PCALIGN $32

loop32:
	CMPQ BX, R10
	JEQ  loop8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, R11                   // bucket slice header
	MOVQ CX, R12

	PCALIGN $32

bucket32:
	MOVQ (R11), R13                // bucket data pointer
	ADDQ R8, R13
	ADDQ BX, R13
	VMOVUPS (R13), Y8
	VSUBPS  Y4, Y8, Y8             // y = v - c
	VADDPS  Y8, Y0, Y9             // t = s + y
	VSUBPS  Y0, Y9, Y10            // t - s
	VSUBPS  Y8, Y10, Y4            // c = (t - s) - y
	VMOVAPS Y9, Y0                 // s = t
	VMOVUPS 32(R13), Y8
	VSUBPS  Y5, Y8, Y8
	VADDPS  Y8, Y1, Y9
	VSUBPS  Y1, Y9, Y10
	VSUBPS  Y8, Y10, Y5
	VMOVAPS Y9, Y1
	VMOVUPS 64(R13), Y8
	VSUBPS  Y6, Y8, Y8
	VADDPS  Y8, Y2, Y9
	VSUBPS  Y2, Y9, Y10
	VSUBPS  Y8, Y10, Y6
	VMOVAPS Y9, Y2
	VMOVUPS 96(R13), Y8
	VSUBPS  Y7, Y8, Y8
	VADDPS  Y8, Y3, Y9
	VSUBPS  Y3, Y9, Y10
	VSUBPS  Y8, Y10, Y7
	VMOVAPS Y9, Y3
	ADDQ $24, R11
	DECQ R12
	JNZ  bucket32
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	VMOVUPS Y2, 64(DI)(BX*1)
	VMOVUPS Y3, 96(DI)(BX*1)
	ADDQ $128, BX
	JMP  loop32

	PCALIGN $32

loop8:
	CMPQ BX, R9
	JEQ  done
	VXORPS Y0, Y0, Y0
	VXORPS Y4, Y4, Y4
	MOVQ SI, R11
	MOVQ CX, R12

	PCALIGN $32

bucket8:
	MOVQ (R11), R13
	ADDQ R8, R13
	VMOVUPS (R13)(BX*1), Y8
	VSUBPS  Y4, Y8, Y8
	VADDPS  Y8, Y0, Y9
	VSUBPS  Y0, Y9, Y10
	VSUBPS  Y8, Y10, Y4
	VMOVAPS Y9, Y0
	ADDQ $24, R11
	DECQ R12
	JNZ  bucket8
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	JMP  loop8

done:
	VZEROUPPER
	RET
