//go:build amd64

#include "textflag.h"

// Sign masks for −i·e = (im e, −re e) after the lane swap: negim flips
// the imaginary part of both complex128 in a ymm register, neghi only the
// upper one's.
DATA negim<>+0(SB)/8, $0
DATA negim<>+8(SB)/8, $0x8000000000000000
DATA negim<>+16(SB)/8, $0
DATA negim<>+24(SB)/8, $0x8000000000000000
GLOBL negim<>(SB), RODATA|NOPTR, $32

DATA neghi<>+0(SB)/8, $0
DATA neghi<>+8(SB)/8, $0
DATA neghi<>+16(SB)/8, $0
DATA neghi<>+24(SB)/8, $0x8000000000000000
GLOBL neghi<>(SB), RODATA|NOPTR, $32

// CMUL sets out to v·w for the two complex128 in v and the two twiddles
// in w, as Go computes a*w: (vr·wr − vi·wi, vi·wr + vr·wi), each product
// and the sum or difference rounded once. Y12–Y14 are clobbered.
#define CMUL(w, v, out) \
	VMOVDDUP  w, Y12; \
	VPERMILPD $15, w, Y13; \
	VPERMILPD $5, v, Y14; \
	VMULPD    v, Y12, Y12; \
	VMULPD    Y13, Y14, Y14; \
	VADDSUBPD Y14, Y12, out

// BFLY runs two radix-4 butterflies on a (Y0), b·w1 (Y1), c·w2 (Y2) and
// d·w3 (Y3) and stores the four outputs. Y4–Y11 are clobbered; Y15 holds
// negim.
#define BFLY(pa, pb, pc, pd) \
	VADDPD    Y2, Y0, Y4; \
	VSUBPD    Y2, Y0, Y5; \
	VADDPD    Y3, Y1, Y6; \
	VSUBPD    Y3, Y1, Y7; \
	VPERMILPD $5, Y7, Y7; \
	VXORPD    Y15, Y7, Y7; \
	VADDPD    Y6, Y4, Y8; \
	VADDPD    Y7, Y5, Y9; \
	VSUBPD    Y6, Y4, Y10; \
	VSUBPD    Y7, Y5, Y11; \
	VMOVUPD   Y8, pa; \
	VMOVUPD   Y9, pb; \
	VMOVUPD   Y10, pc; \
	VMOVUPD   Y11, pd

// func r4first(x []complex128)
//
// The q = 1 stage: every group of four is one k = 0 butterfly. Y0 holds
// (a, b) and Y1 (c, d), so their sum is (t0, t2) and their difference
// (t1, b−d); the upper half of the difference becomes t3 = −i·(b−d), and
// two 128-bit permutes regroup the halves as (t0, t1) and (t2, t3).
TEXT ·r4first(SB), NOSPLIT, $0-24
	MOVQ    x_base+0(FP), SI
	MOVQ    x_len+8(FP), CX
	SHRQ    $2, CX
	VMOVUPD neghi<>(SB), Y15

first:
	VMOVUPD    (SI), Y0
	VMOVUPD    32(SI), Y1
	VADDPD     Y1, Y0, Y2
	VSUBPD     Y1, Y0, Y3
	VPERMILPD  $6, Y3, Y3
	VXORPD     Y15, Y3, Y3
	VPERM2F128 $0x20, Y3, Y2, Y4
	VPERM2F128 $0x31, Y3, Y2, Y5
	VADDPD     Y5, Y4, Y0
	VSUBPD     Y5, Y4, Y1
	VMOVUPD    Y0, (SI)
	VMOVUPD    Y1, 32(SI)
	ADDQ       $64, SI
	DECQ       CX
	JNZ        first
	VZEROUPPER
	RET

// func r4stage(x []complex128, q int, w *complex128)
//
// One stage of quarter q >= 2 (q even): for each group of 4q samples,
// butterflies k and k+1 run together, a, b, c and d read from the
// group's four quarters at byte offset BX = 16k, as are the twiddles
// from w1 (DI), w2 (R13) and w3 (AX). In the first pair, lane 0 is the
// k = 0 butterfly, whose twiddles are 1: its b, c and d are blended back
// from memory over the products, so it never goes through a multiply
// (1+0i would change the sign of a zero and turn Inf into NaN).
TEXT ·r4stage(SB), NOSPLIT, $0-40
	MOVQ    x_base+0(FP), SI
	MOVQ    x_len+8(FP), CX
	MOVQ    q+24(FP), R8
	MOVQ    w+32(FP), DI
	SHLQ    $4, R8
	SHLQ    $4, CX
	ADDQ    SI, CX
	LEAQ    (DI)(R8*1), R13
	LEAQ    (R13)(R8*1), AX
	VMOVUPD negim<>(SB), Y15

group:
	LEAQ     (SI)(R8*1), R10
	LEAQ     (R10)(R8*1), R11
	LEAQ     (R11)(R8*1), R12
	VMOVUPD  (SI), Y0
	CMUL((DI), (R10), Y1)
	VBLENDPD $3, (R10), Y1, Y1
	CMUL((R13), (R11), Y2)
	VBLENDPD $3, (R11), Y2, Y2
	CMUL((AX), (R12), Y3)
	VBLENDPD $3, (R12), Y3, Y3
	BFLY((SI), (R10), (R11), (R12))
	MOVQ     $32, BX
	CMPQ     BX, R8
	JGE      next

pair:
	VMOVUPD (SI)(BX*1), Y0
	CMUL((DI)(BX*1), (R10)(BX*1), Y1)
	CMUL((R13)(BX*1), (R11)(BX*1), Y2)
	CMUL((AX)(BX*1), (R12)(BX*1), Y3)
	BFLY((SI)(BX*1), (R10)(BX*1), (R11)(BX*1), (R12)(BX*1))
	ADDQ    $32, BX
	CMPQ    BX, R8
	JLT     pair

next:
	LEAQ (R12)(R8*1), SI
	CMPQ SI, CX
	JLT  group
	VZEROUPPER
	RET
