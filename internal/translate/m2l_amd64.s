#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// One group member's product for the current entry and chunk: with the
// source chunk in Y8 (real parts) and Y9 (imaginary parts), load the
// member's tensor chunk from tp and update its accumulator chunk at ap:
//	re += tr*sr - ti*si
//	im += tr*si + ti*sr
#define MEMBER(tp, ap) \
	VMOVUPD (tp)(AX*1), Y10 \
	VMOVUPD 32(tp)(AX*1), Y11 \
	VMULPD Y10, Y8, Y12 \
	VMULPD Y11, Y9, Y13 \
	VSUBPD Y13, Y12, Y12 \
	VADDPD (ap)(AX*1), Y12, Y12 \
	VMOVUPD Y12, (ap)(AX*1) \
	VMULPD Y9, Y10, Y14 \
	VMULPD Y8, Y11, Y15 \
	VADDPD Y15, Y14, Y14 \
	VADDPD 32(ap)(AX*1), Y14, Y14 \
	VMOVUPD Y14, 32(ap)(AX*1)

// Source pointer for entry field off(BX): base + 8*offset + bytes.
#define SOURCE(off, base, bytes, reg) \
	MOVQ off(BX), reg \
	SHLQ $3, reg \
	ADDQ base, reg \
	ADDQ bytes, reg

// Tensor pointer for entry field off(BX): the data pointer of slice
// header table[index] (24 bytes each) + bytes.
#define TENSOR(off, table, bytes, reg) \
	MOVQ off(BX), reg \
	LEAQ (reg)(reg*2), reg \
	MOVQ table, AX \
	MOVQ (AX)(reg*8), reg \
	ADDQ bytes, reg

// func m2lGroupAVX(acc *float64, accStride int, src *float64, ten *[]float64, toff int, ents *int, nents, nch int)
//
// Entries are the outer loop and chunks the inner one: each entry
// streams its source and 4 tensors sequentially, the source chunk is
// loaded once for all 4 members, and the members' accumulators (kept
// small by the caller) stay in L1. The chunk loop indexes every pointer
// with AX running from -(chunk bytes) to 0, so the pointers are set up
// past the end of the block.
TEXT ·m2lGroupAVX(SB), NOSPLIT, $0-64
	MOVQ nch+56(FP), AX
	SHLQ $6, AX
	JLE done
	MOVQ AX, nch+56(FP)   // from here on: chunk bytes
	MOVQ toff+32(FP), DX
	SHLQ $3, DX
	ADDQ AX, DX
	MOVQ DX, toff+32(FP)  // from here on: tensor byte offset + chunk bytes
	MOVQ nents+48(FP), CX
	TESTQ CX, CX
	JLE done
	MOVQ accStride+8(FP), R8
	SHLQ $3, R8
	MOVQ acc+0(FP), DI
	ADDQ AX, DI
	LEAQ (DI)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R8
	MOVQ ents+40(FP), BX

entry:
	SOURCE(0, src+16(FP), nch+56(FP), SI)
	TENSOR(8, ten+24(FP), toff+32(FP), R11)
	TENSOR(16, ten+24(FP), toff+32(FP), R12)
	TENSOR(24, ten+24(FP), toff+32(FP), R13)
	TENSOR(32, ten+24(FP), toff+32(FP), DX)
	MOVQ nch+56(FP), AX
	NEGQ AX

chunk:
	VMOVUPD (SI)(AX*1), Y8
	VMOVUPD 32(SI)(AX*1), Y9
	MEMBER(R11, DI)
	MEMBER(R12, R9)
	MEMBER(R13, R10)
	MEMBER(DX, R8)
	ADDQ $64, AX
	JNZ chunk

	ADDQ $40, BX
	DECQ CX
	JNZ entry

done:
	VZEROUPPER
	RET
