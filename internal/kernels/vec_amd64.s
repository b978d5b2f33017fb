//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the vector kernels. VMULPS, VADDPS and VSUBPS only, never
// FMA, in the pure-Go loops' operation order: each lane replays the portable
// loop for its element, so every result bit is the same. Loads and stores are
// unaligned (windows of an arena start anywhere); the last n%8 elements take
// the same operations one lane at a time.

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

// func rectifyIntoAVX2(dst, src *float32, n int)
//
// VMAXPS returns its second source (the first operand as written here) when
// either source is NaN or both are zeros: with +0 there, NaN and -0 store +0
// as every negative does, which is what the portable loop stores.
TEXT ·rectifyIntoAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS Y15, Y15, Y15

rect32:
	CMPQ    CX, $32
	JL      rect8
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMAXPS  Y15, Y0, Y0
	VMAXPS  Y15, Y1, Y1
	VMAXPS  Y15, Y2, Y2
	VMAXPS  Y15, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, CX
	JMP     rect32

rect8:
	CMPQ    CX, $8
	JL      rect1
	VMOVUPS (SI), Y0
	VMAXPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     rect8

rect1:
	TESTQ  CX, CX
	JZ     rectdone
	VMOVSS (SI), X0
	VMAXSS X15, X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	DECQ   CX
	JMP    rect1

rectdone:
	VZEROUPPER
	RET

// func addRectifyIntoAVX2(dst, a, b *float32, n int)
TEXT ·addRectifyIntoAVX2(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPS Y15, Y15, Y15

addrect16:
	CMPQ    CX, $16
	JL      addrect8
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VADDPS  (DX), Y0, Y0
	VADDPS  32(DX), Y1, Y1
	VMAXPS  Y15, Y0, Y0
	VMAXPS  Y15, Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, DX
	SUBQ    $16, CX
	JMP     addrect16

addrect8:
	CMPQ    CX, $8
	JL      addrect1
	VMOVUPS (SI), Y0
	VADDPS  (DX), Y0, Y0
	VMAXPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $8, CX
	JMP     addrect8

addrect1:
	TESTQ  CX, CX
	JZ     addrectdone
	VMOVSS (SI), X0
	VADDSS (DX), X0, X0
	VMAXSS X15, X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	ADDQ   $4, DX
	DECQ   CX
	JMP    addrect1

addrectdone:
	VZEROUPPER
	RET

// func gateIntoAVX2(dst, grad, y *float32, n int)
//
// Predicate 0x1E is GT_OQ: y > 0, false for NaN. The compare leaves all ones
// or zero in each lane, which ANDed with the gradient keeps it or stores +0.
TEXT ·gateIntoAVX2(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   grad+8(FP), SI
	MOVQ   y+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPS Y15, Y15, Y15

gate16:
	CMPQ    CX, $16
	JL      gate8
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VCMPPS  $0x1E, Y15, Y0, Y0
	VCMPPS  $0x1E, Y15, Y1, Y1
	VANDPS  (SI), Y0, Y0
	VANDPS  32(SI), Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, DX
	SUBQ    $16, CX
	JMP     gate16

gate8:
	CMPQ    CX, $8
	JL      gate1
	VMOVUPS (DX), Y0
	VCMPPS  $0x1E, Y15, Y0, Y0
	VANDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $8, CX
	JMP     gate8

gate1:
	TESTQ  CX, CX
	JZ     gatedone
	VMOVSS (DX), X0
	VCMPSS $0x1E, X15, X0, X0
	VMOVSS (SI), X1
	VANDPS X1, X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	ADDQ   $4, DX
	DECQ   CX
	JMP    gate1

gatedone:
	VZEROUPPER
	RET

// The flat-index offsets of a block's eight tap-(0,0) inputs.
DATA evenIdx<>+0(SB)/4, $0
DATA evenIdx<>+4(SB)/4, $2
DATA evenIdx<>+8(SB)/4, $4
DATA evenIdx<>+12(SB)/4, $6
DATA evenIdx<>+16(SB)/4, $8
DATA evenIdx<>+20(SB)/4, $10
DATA evenIdx<>+24(SB)/4, $12
DATA evenIdx<>+28(SB)/4, $14
GLOBL evenIdx<>(SB), RODATA|NOPTR, $32

// One tap of maxPool2x2AVX2: the mask M of lanes where the tap's values V beat
// the best so far (GT_OQ: strict, never a NaN) moves them into BEST and their
// flat indices IDX into ARG.
#define POOLTAP(V, IDX, BEST, ARG, M) \
	VCMPPS    $0x1E, BEST, V, M; \
	VBLENDVPS M, V, BEST, BEST;  \
	VBLENDVPS M, IDX, ARG, ARG

// One block of maxPool2x2AVX2, written once for the Y registers (eight
// outputs) and the X registers of the same numbers (four). A0, A1 hold the two
// halves of row 0 (inputs 0-3|8-11 and 4-7|12-15 in Y registers, 0-3 and 4-7
// in X), B0, B1 those of row 1, I00 the tap-(0,0) indices, D01, D10, D11 the
// other taps' index offsets: de-interleave each row into its even and odd
// columns — taps (ky,0) and (ky,1), in output order — and try the four taps in
// (ky,kx) order from (NINF, NONE) = (-Inf, -1). Leaves the maxima in BEST and
// their indices in ARG; M, V and IDX are scratch.
#define POOLBLOCK(A0, A1, B0, B1, BEST, ARG, M, V, NINF, NONE, I00, D01, D10, D11, IDX) \
	VMOVAPS NINF, BEST;             \
	VMOVAPS NONE, ARG;              \
	VSHUFPS $0x88, A1, A0, V;       \
	POOLTAP(V, I00, BEST, ARG, M);  \
	VSHUFPS $0xDD, A1, A0, V;       \
	VPADDD  D01, I00, IDX;          \
	POOLTAP(V, IDX, BEST, ARG, M);  \
	VSHUFPS $0x88, B1, B0, V;       \
	VPADDD  D10, I00, IDX;          \
	POOLTAP(V, IDX, BEST, ARG, M);  \
	VSHUFPS $0xDD, B1, B0, V;       \
	VPADDD  D11, I00, IDX;          \
	POOLTAP(V, IDX, BEST, ARG, M)

// func maxPool2x2AVX2(out *float32, argmax *int32, row0, row1 *float32, n, base, w int)
//
// Eight outputs a block, then four; a tail shorter than four is pooled as the
// last four outputs of the row, some of them for the second time (n >= 4).
// Y8 = -Inf, Y9 = -1, Y11..Y13 = the index offsets 1, w, w+1 of taps (0,1),
// (1,0), (1,1) from tap (0,0), Y15 = evenIdx; AX = the index of the block's
// first input.
TEXT ·maxPool2x2AVX2(SB), NOSPLIT, $0-56
	MOVQ         out+0(FP), DI
	MOVQ         argmax+8(FP), SI
	MOVQ         row0+16(FP), R8
	MOVQ         row1+24(FP), R9
	MOVQ         n+32(FP), CX
	MOVQ         base+40(FP), AX
	MOVQ         w+48(FP), BX
	MOVL         $0xFF800000, DX
	VMOVD        DX, X8
	VPBROADCASTD X8, Y8
	VPCMPEQD     Y9, Y9, Y9
	VPSRLD       $31, Y9, Y11
	VMOVD        BX, X12
	VPBROADCASTD X12, Y12
	VPADDD       Y11, Y12, Y13
	VMOVDQU      evenIdx<>(SB), Y15

pool8:
	CMPQ         CX, $8
	JL           pool4
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	VPADDD       Y15, Y10, Y10
	VMOVUPS      (R8), X0
	VINSERTF128  $1, 32(R8), Y0, Y0
	VMOVUPS      16(R8), X1
	VINSERTF128  $1, 48(R8), Y1, Y1
	VMOVUPS      (R9), X2
	VINSERTF128  $1, 32(R9), Y2, Y2
	VMOVUPS      16(R9), X3
	VINSERTF128  $1, 48(R9), Y3, Y3
	POOLBLOCK(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14)
	VMOVUPS      Y4, (DI)
	VMOVDQU      Y5, (SI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	ADDQ         $64, R8
	ADDQ         $64, R9
	ADDQ         $16, AX
	SUBQ         $8, CX
	JMP          pool8

pool4:
	TESTQ CX, CX
	JZ    pooldone
	CMPQ  CX, $4
	JGE   poolx

	// 0 < CX < 4: step back 4-CX outputs, so that this block ends the row.
	SUBQ $4, CX
	LEAQ (DI)(CX*4), DI
	LEAQ (SI)(CX*4), SI
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*8), R9
	LEAQ (AX)(CX*2), AX
	MOVQ $4, CX

poolx:
	VMOVD        AX, X10
	VPBROADCASTD X10, X10
	VPADDD       X15, X10, X10
	VMOVUPS      (R8), X0
	VMOVUPS      16(R8), X1
	VMOVUPS      (R9), X2
	VMOVUPS      16(R9), X3
	POOLBLOCK(X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, X14)
	VMOVUPS      X4, (DI)
	VMOVDQU      X5, (SI)
	ADDQ         $16, DI
	ADDQ         $16, SI
	ADDQ         $32, R8
	ADDQ         $32, R9
	ADDQ         $8, AX
	SUBQ         $4, CX
	JMP          pool4

pooldone:
	VZEROUPPER
	RET
