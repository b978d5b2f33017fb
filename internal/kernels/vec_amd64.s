//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of AddInto and MomentumStep. VMULPS, VADDPS and VSUBPS only,
// never FMA, in the pure-Go loops' operation order: each lane replays the
// portable loop for its element, so every result bit is the same. Loads and
// stores are unaligned (windows of an arena start anywhere); the last n%8
// elements take the same operations one lane at a time.

// func addIntoAVX2(dst, src *float32, n int)
TEXT ·addIntoAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add32:
	CMPQ    CX, $32
	JL      add8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VADDPS  (SI), Y0, Y0
	VADDPS  32(SI), Y1, Y1
	VADDPS  64(SI), Y2, Y2
	VADDPS  96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, CX
	JMP     add32

add8:
	CMPQ    CX, $8
	JL      add1
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     add8

add1:
	TESTQ  CX, CX
	JZ     adddone
	VMOVSS (DI), X0
	VADDSS (SI), X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	DECQ   CX
	JMP    add1

adddone:
	VZEROUPPER
	RET

// func momentumStepAVX2(w, v, grad *float32, n int, scale, wd, momentum, lr float32)
//
// Per element: grad = g*scale + wd*w; v = momentum*v + grad; w = w - lr*v.
TEXT ·momentumStepAVX2(SB), NOSPLIT, $0-48
	MOVQ         w+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         grad+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS scale+32(FP), Y12
	VBROADCASTSS wd+36(FP), Y13
	VBROADCASTSS momentum+40(FP), Y14
	VBROADCASTSS lr+44(FP), Y15

step8:
	CMPQ    CX, $8
	JL      step1
	VMOVUPS (DX), Y0
	VMULPS  Y12, Y0, Y0  // g*scale
	VMOVUPS (DI), Y1
	VMULPS  Y1, Y13, Y2  // wd*w
	VADDPS  Y2, Y0, Y0   // grad
	VMOVUPS (SI), Y3
	VMULPS  Y3, Y14, Y3  // momentum*v
	VADDPS  Y0, Y3, Y3   // v
	VMOVUPS Y3, (SI)
	VMULPS  Y3, Y15, Y4  // lr*v
	VSUBPS  Y4, Y1, Y1   // w - lr*v
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $8, CX
	JMP     step8

step1:
	TESTQ  CX, CX
	JZ     stepdone
	VMOVSS (DX), X0
	VMULSS X12, X0, X0
	VMOVSS (DI), X1
	VMULSS X1, X13, X2
	VADDSS X2, X0, X0
	VMOVSS (SI), X3
	VMULSS X3, X14, X3
	VADDSS X0, X3, X3
	VMOVSS X3, (SI)
	VMULSS X3, X15, X4
	VSUBSS X4, X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	ADDQ   $4, DX
	DECQ   CX
	JMP    step1

stepdone:
	VZEROUPPER
	RET
