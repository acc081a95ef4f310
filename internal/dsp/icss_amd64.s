//go:build amd64

#include "textflag.h"

// FOLD folds four LoRa bins from Y0, Y1 (the lower image's bins k…k+3,
// two complex128 each) and Y2, Y3 (the upper image's), stores them at
// (DI) and adds them to the energy in X15, one bin at a time in bin
// order. VHADDPD leaves the squared magnitudes in lane order (k, k+2,
// k+1, k+3); the sqrt, sum and square are lane-wise, so one VPERMPD
// after them restores bin order. Y1–Y3 are clobbered.
#define FOLD \
	VMULPD       Y0, Y0, Y0; \
	VMULPD       Y1, Y1, Y1; \
	VMULPD       Y2, Y2, Y2; \
	VMULPD       Y3, Y3, Y3; \
	VHADDPD      Y1, Y0, Y0; \
	VHADDPD      Y3, Y2, Y2; \
	VSQRTPD      Y0, Y0; \
	VSQRTPD      Y2, Y2; \
	VADDPD       Y2, Y0, Y0; \
	VMULPD       Y0, Y0, Y0; \
	VPERMPD      $0xD8, Y0, Y0; \
	VMOVUPD      Y0, (DI); \
	VADDSD       X0, X15, X15; \
	VPERMILPD    $1, X0, X1; \
	VADDSD       X1, X15, X15; \
	VEXTRACTF128 $1, Y0, X1; \
	VADDSD       X1, X15, X15; \
	VPERMILPD    $1, X1, X1; \
	VADDSD       X1, X15, X15

// func foldSum(dst []float64, x, full []complex128, hi int) float64
//
// For each group of four bins (len(dst) a positive multiple of 4), the
// lower image is read from x at SI and the upper one hi complex128
// further on (byte offset R8). With full non-empty, each image is
// full − x, subtracted as it is loaded: only the bins the fold reads are
// differenced, and x is not written.
TEXT ·foldSum(SB), NOSPLIT, $0-88
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   x_base+24(FP), SI
	MOVQ   full_base+48(FP), DX
	MOVQ   full_len+56(FP), BX
	MOVQ   hi+72(FP), R8
	SHLQ   $4, R8
	SHRQ   $2, CX
	VXORPD X15, X15, X15
	TESTQ  BX, BX
	JNZ    suffix

prefix:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD (SI)(R8*1), Y2
	VMOVUPD 32(SI)(R8*1), Y3
	FOLD
	ADDQ    $64, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     prefix
	JMP     done

suffix:
	VMOVUPD (DX), Y0
	VSUBPD  (SI), Y0, Y0
	VMOVUPD 32(DX), Y1
	VSUBPD  32(SI), Y1, Y1
	VMOVUPD (DX)(R8*1), Y2
	VSUBPD  (SI)(R8*1), Y2, Y2
	VMOVUPD 32(DX)(R8*1), Y3
	VSUBPD  32(SI)(R8*1), Y3, Y3
	FOLD
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     suffix

done:
	VZEROUPPER
	MOVSD X15, ret+80(FP)
	RET

// func scaleMin(acc, s []float64, inv float64)
//
// acc[i] = min(s[i]·inv, acc[i]) over len(acc), a positive multiple of 4.
// VMINPD returns its second source (acc) unless the first (b) is
// strictly less, so a NaN on either side or a pair of zeros keeps acc,
// as IntersectInto's `if b < acc` does.
TEXT ·scaleMin(SB), NOSPLIT, $0-56
	MOVQ         acc_base+0(FP), DI
	MOVQ         acc_len+8(FP), CX
	MOVQ         s_base+24(FP), SI
	VBROADCASTSD inv+48(FP), Y14
	SHRQ         $2, CX

scale:
	VMOVUPD (SI), Y0
	VMULPD  Y14, Y0, Y0
	VMINPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     scale
	VZEROUPPER
	RET
