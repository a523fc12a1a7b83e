#include "textflag.h"

// func sumRows8AVX2(s *[4]uint64, tab *float64, n uint64, pairs int, acc *[8]float64)
//
// pairs >= 1. One iteration is one pair of FillIntn: the xoshiro256**
// step of Uint64 on the state in R8-R11, the high then the low 32-bit
// half reduced to a row, and each row added into Y0 (lanes 0-3) and Y1
// (lanes 4-7). The adds run in draw order: each lane is the scalar sum.
TEXT ·sumRows8AVX2(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), DI
	MOVQ tab+8(FP), SI
	MOVQ n+16(FP), R13
	MOVQ pairs+24(FP), CX
	MOVQ acc+32(FP), DX
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	VMOVUPD 0(DX), Y0
	VMOVUPD 32(DX), Y1

loop:
	// u := rotl(s1*5, 7) * 9
	LEAQ (R9)(R9*4), AX
	ROLQ $7, AX
	LEAQ (AX)(AX*8), AX
	// t := s1 << 17, then the state update
	MOVQ R9, BX
	SHLQ $17, BX
	XORQ R8, R10
	XORQ R9, R11
	XORQ R10, R9
	XORQ R11, R8
	XORQ BX, R10
	ROLQ $45, R11
	// Row byte offsets: ((u>>32)*n>>32)*64, then ((u&0xffffffff)*n>>32)*64.
	MOVQ AX, BX
	SHRQ $32, BX
	IMULQ R13, BX
	SHRQ $32, BX
	SHLQ $6, BX
	MOVL AX, R12
	IMULQ R13, R12
	SHRQ $32, R12
	SHLQ $6, R12
	VADDPD 0(SI)(BX*1), Y0, Y0
	VADDPD 32(SI)(BX*1), Y1, Y1
	VADDPD 0(SI)(R12*1), Y0, Y0
	VADDPD 32(SI)(R12*1), Y1, Y1
	DECQ CX
	JNZ loop

	MOVQ R8, 0(DI)
	MOVQ R9, 8(DI)
	MOVQ R10, 16(DI)
	MOVQ R11, 24(DI)
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
