//go:build amd64

#include "textflag.h"

// func goertzel3(x []complex128, k *[3][4]float64, st *[3]goertzelState)
//
// Runs polyphaseSums' four interleaved Goertzel recurrences for three
// angles in one backward pass over x (len(x) a multiple of 4, at least 4).
// One ymm register holds two phases as (re, im, re, im): Y0–Y3 are angle
// 0's v1[0:2], v1[2:4], v2[0:2], v2[2:4], Y4–Y7 angle 1's, Y8–Y11 angle
// 2's. Y12 and Y13 hold x[base:base+2] and x[base+2:base+4], Y14 and Y15
// are temporaries, and k[j] (2·cos 4θ_j in every lane) is read from
// memory. Each step is v := (x + k·v1) − v2 as separate multiply, add and
// subtract — no FMA — so every lane rounds exactly as the scalar Go loop
// does. The new value overwrites v2, so v1 and v2 trade registers each
// step; the loop runs two steps per iteration and peels one step first
// when the step count is odd.
TEXT ·goertzel3(SB), NOSPLIT, $0-40
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ k+24(FP), DX
	MOVQ st+32(FP), DI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	// SI points at x[len-4], the first (highest) block; CX counts steps.
	SHRQ $2, CX
	MOVQ CX, AX
	SHLQ $6, AX
	LEAQ -64(SI)(AX*1), SI

	TESTQ $1, CX
	JZ    pairs

	// Odd step count: one step from the zero state, written into v1 so
	// v2 keeps its zero (the old v1).
	VMOVUPD (SI), Y12
	VMOVUPD 32(SI), Y13
	VMULPD  (DX), Y0, Y14
	VMULPD  (DX), Y1, Y15
	VADDPD  Y12, Y14, Y14
	VADDPD  Y13, Y15, Y15
	VSUBPD  Y2, Y14, Y0
	VSUBPD  Y3, Y15, Y1
	VMULPD  32(DX), Y4, Y14
	VMULPD  32(DX), Y5, Y15
	VADDPD  Y12, Y14, Y14
	VADDPD  Y13, Y15, Y15
	VSUBPD  Y6, Y14, Y4
	VSUBPD  Y7, Y15, Y5
	VMULPD  64(DX), Y8, Y14
	VMULPD  64(DX), Y9, Y15
	VADDPD  Y12, Y14, Y14
	VADDPD  Y13, Y15, Y15
	VSUBPD  Y10, Y14, Y8
	VSUBPD  Y11, Y15, Y9
	SUBQ    $64, SI
	DECQ    CX

pairs:
	SHRQ $1, CX
	JZ   done

loop:
	// Step A: v2 ← (x + k·v1) − v2; v1 now sits in the v2 registers.
	VMOVUPD (SI), Y12
	VMOVUPD 32(SI), Y13
	VMULPD  (DX), Y0, Y14
	VMULPD  (DX), Y1, Y15
	VADDPD  Y12, Y14, Y14
	VADDPD  Y13, Y15, Y15
	VSUBPD  Y2, Y14, Y2
	VSUBPD  Y3, Y15, Y3
	VMULPD  32(DX), Y4, Y14
	VMULPD  32(DX), Y5, Y15
	VADDPD  Y12, Y14, Y14
	VADDPD  Y13, Y15, Y15
	VSUBPD  Y6, Y14, Y6
	VSUBPD  Y7, Y15, Y7
	VMULPD  64(DX), Y8, Y14
	VMULPD  64(DX), Y9, Y15
	VADDPD  Y12, Y14, Y14
	VADDPD  Y13, Y15, Y15
	VSUBPD  Y10, Y14, Y10
	VSUBPD  Y11, Y15, Y11

	// Step B, one block lower: the roles swap back.
	VMOVUPD -64(SI), Y12
	VMOVUPD -32(SI), Y13
	VMULPD  (DX), Y2, Y14
	VMULPD  (DX), Y3, Y15
	VADDPD  Y12, Y14, Y14
	VADDPD  Y13, Y15, Y15
	VSUBPD  Y0, Y14, Y0
	VSUBPD  Y1, Y15, Y1
	VMULPD  32(DX), Y6, Y14
	VMULPD  32(DX), Y7, Y15
	VADDPD  Y12, Y14, Y14
	VADDPD  Y13, Y15, Y15
	VSUBPD  Y4, Y14, Y4
	VSUBPD  Y5, Y15, Y5
	VMULPD  64(DX), Y10, Y14
	VMULPD  64(DX), Y11, Y15
	VADDPD  Y12, Y14, Y14
	VADDPD  Y13, Y15, Y15
	VSUBPD  Y8, Y14, Y8
	VSUBPD  Y9, Y15, Y9

	SUBQ $128, SI
	DECQ CX
	JNZ  loop

done:
	// st[j] = {v1[0:4], v2[0:4]}: 128 bytes per angle.
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VMOVUPD Y8, 256(DI)
	VMOVUPD Y9, 288(DI)
	VMOVUPD Y10, 320(DI)
	VMOVUPD Y11, 352(DI)
	VZEROUPPER
	RET
