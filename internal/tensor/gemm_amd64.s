//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels under gemmTile. VMULPS then VADDPS everywhere, never FMA: each
// product is rounded to float32 before it is added, exactly as the pure-Go
// loops in matmul.go do on amd64, so every lane replays the portable
// kernel's operation sequence for its C element.

// lanemask: loading 32 bytes at lanemask+(8-s)*4 masks off the first s
// lanes; loading at lanemask+(16-r)*4 keeps only the first r lanes.
DATA lanemask<>+0(SB)/8, $0
DATA lanemask<>+8(SB)/8, $0
DATA lanemask<>+16(SB)/8, $0
DATA lanemask<>+24(SB)/8, $0
DATA lanemask<>+32(SB)/8, $-1
DATA lanemask<>+40(SB)/8, $-1
DATA lanemask<>+48(SB)/8, $-1
DATA lanemask<>+56(SB)/8, $-1
DATA lanemask<>+64(SB)/8, $0
DATA lanemask<>+72(SB)/8, $0
DATA lanemask<>+80(SB)/8, $0
DATA lanemask<>+88(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $96

// AXPY_S forms s = alpha*a[p] in X8 and broadcasts it to Y8, or jumps to
// skip when s == 0 (either sign; NaN compares unordered and is not skipped)
// — the portable loop's `if s == 0 { continue }`.
#define AXPY_S(skip) \
	VMOVSS    (R11), X8; \
	VMULSS    X15, X8, X8; \
	VUCOMISS  X14, X8; \
	JNE       2(PC); \
	JPC       skip; \
	VBROADCASTSS X8, Y8

// AXPY_NEXT steps to the next p: one element of op(A)'s row, one row of B.
#define AXPY_NEXT(loop) \
	ADDQ R8, R11; \
	ADDQ R10, R12; \
	DECQ R13; \
	JNZ  loop

#define AXPY_RESET \
	MOVQ SI, R11; \
	MOVQ DX, R12; \
	MOVQ R9, R13

#define MADD(off, acc, tmp) \
	VMULPS off(R12), Y8, tmp; \
	VADDPS tmp, acc, acc

// AXPY_C0 starts a block's C registers: a jump to zero (which clears them,
// +0) when the call stores, or falling through to the loads of C when it
// accumulates. BX is the store flag.
#define AXPY_C0(zero) \
	TESTQ BX, BX; \
	JNZ   zero

// func axpyRowAVX2(c *float32, n int, a *float32, astride, k int, b *float32, ldb int, alpha float32, store bool)
//
// c[j] += (alpha*a[p*astride]) * b[p*ldb+j] for j in [0,n), p ascending in
// [0,k), skipping every p whose scaled A element is zero. Columns are taken
// in blocks of 64, 32, 16, 8 and a masked remainder; a block's C values stay
// in registers across the whole p loop, which changes nothing per element.
//
// With store set the sums start from +0 instead of from C, which is then
// written without being read: Gemm's beta 0 without the zero-fill pass, bit
// for bit what adding to a cleared C gives (a row whose every scaled A
// element is zero stores +0). k must be at least 1 then — with k <= 0 the
// kernel touches nothing.
TEXT ·axpyRowAVX2(SB), NOSPLIT, $0-61
	MOVQ  c+0(FP), DI
	MOVQ  n+8(FP), CX
	MOVQ  a+16(FP), SI
	MOVQ  astride+24(FP), R8
	MOVQ  k+32(FP), R9
	MOVQ  b+40(FP), DX
	MOVQ  ldb+48(FP), R10
	VMOVSS alpha+56(FP), X15
	MOVBQZX store+60(FP), BX
	SHLQ  $2, R8
	SHLQ  $2, R10
	VXORPS X14, X14, X14
	TESTQ R9, R9
	JLE   done

block64:
	CMPQ CX, $64
	JLT  block32
	AXPY_C0(zero64)
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	JMP  start64
zero64:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
start64:
	AXPY_RESET
loop64:
	AXPY_S(skip64)
	MADD(0, Y0, Y9)
	MADD(32, Y1, Y10)
	MADD(64, Y2, Y11)
	MADD(96, Y3, Y12)
	MADD(128, Y4, Y9)
	MADD(160, Y5, Y10)
	MADD(192, Y6, Y11)
	MADD(224, Y7, Y12)
skip64:
	AXPY_NEXT(loop64)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $64, CX
	JMP  block64

block32:
	CMPQ CX, $32
	JLT  block16
	AXPY_C0(zero32)
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	JMP  start32
zero32:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
start32:
	AXPY_RESET
loop32:
	AXPY_S(skip32)
	MADD(0, Y0, Y9)
	MADD(32, Y1, Y10)
	MADD(64, Y2, Y11)
	MADD(96, Y3, Y12)
skip32:
	AXPY_NEXT(loop32)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, CX

block16:
	CMPQ CX, $16
	JLT  block8
	AXPY_C0(zero16)
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	JMP  start16
zero16:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
start16:
	AXPY_RESET
loop16:
	AXPY_S(skip16)
	MADD(0, Y0, Y9)
	MADD(32, Y1, Y10)
skip16:
	AXPY_NEXT(loop16)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $16, CX

block8:
	CMPQ CX, $8
	JLT  tail
	AXPY_C0(zero8)
	VMOVUPS 0(DI), Y0
	JMP  start8
zero8:
	VXORPS Y0, Y0, Y0
start8:
	AXPY_RESET
loop8:
	AXPY_S(skip8)
	MADD(0, Y0, Y9)
skip8:
	AXPY_NEXT(loop8)
	VMOVUPS Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, CX

tail:
	// The last n%8 columns: the same 8-wide block through masked loads and a
	// masked store, so no byte past either row's end is touched.
	TESTQ CX, CX
	JZ    done
	LEAQ  lanemask<>+64(SB), AX
	SHLQ  $2, CX
	SUBQ  CX, AX
	VMOVDQU (AX), Y13
	AXPY_C0(zerotail)
	VMASKMOVPS (DI), Y13, Y0
	JMP  starttail
zerotail:
	VXORPS Y0, Y0, Y0
starttail:
	AXPY_RESET
looptail:
	AXPY_S(skiptail)
	VMASKMOVPS (R12), Y13, Y9
	VMULPS Y9, Y8, Y9
	VADDPS Y9, Y0, Y0
skiptail:
	AXPY_NEXT(looptail)
	VMASKMOVPS Y0, Y13, (DI)

done:
	VZEROUPPER
	RET

// The tap axpy forms each block's sums in registers from +0 and walks B
// through a table of row offsets instead of a leading dimension: BX steps
// through the table, R12 is the current B row at the block's first column.
#define TAP_RESET \
	MOVQ SI, R11; \
	MOVQ R10, BX; \
	MOVQ R9, R13

// TAP_S is AXPY_S without the alpha product (the convolution's alpha is 1,
// and 1*a is a bit for bit): s = a[p] broadcast to Y8, or a jump to skip
// when s == 0. It first points R12 at B row p.
#define TAP_S(skip) \
	MOVQ      (BX), R12; \
	LEAQ      (DX)(R12*4), R12; \
	VMOVSS    (R11), X8; \
	VUCOMISS  X14, X8; \
	JNE       2(PC); \
	JPC       skip; \
	VBROADCASTSS X8, Y8

#define TAP_NEXT(loop) \
	ADDQ R8, R11; \
	ADDQ $8, BX; \
	DECQ R13; \
	JNZ  loop

// TAP_ADDC adds the C values at off(DI) to a block's sums: c + sum.
#define TAP_ADDC(off, acc, tmp) \
	VMOVUPS off(DI), tmp; \
	VADDPS  acc, tmp, acc

// func tapAxpyAVX2(c *float32, n int, a *float32, astride, k int, b *float32, offs *int, add bool)
//
// c[j] = sum_p a[p*astride] * b[offs[p]+j] for j in [0,n) — or c[j] plus that
// sum when add is set — each sum formed from +0 over ascending p in [0,k),
// skipping every p whose A element is zero. k is at least 1. The column
// blocks are axpyRowAVX2's.
TEXT ·tapAxpyAVX2(SB), NOSPLIT, $0-57
	MOVQ  c+0(FP), DI
	MOVQ  n+8(FP), CX
	MOVQ  a+16(FP), SI
	MOVQ  astride+24(FP), R8
	MOVQ  k+32(FP), R9
	MOVQ  b+40(FP), DX
	MOVQ  offs+48(FP), R10
	SHLQ  $2, R8
	VXORPS X14, X14, X14

tblock64:
	CMPQ CX, $64
	JLT  tblock32
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TAP_RESET
tloop64:
	TAP_S(tskip64)
	MADD(0, Y0, Y9)
	MADD(32, Y1, Y10)
	MADD(64, Y2, Y11)
	MADD(96, Y3, Y12)
	MADD(128, Y4, Y9)
	MADD(160, Y5, Y10)
	MADD(192, Y6, Y11)
	MADD(224, Y7, Y12)
tskip64:
	TAP_NEXT(tloop64)
	CMPB add+56(FP), $0
	JEQ  tstore64
	TAP_ADDC(0, Y0, Y9)
	TAP_ADDC(32, Y1, Y10)
	TAP_ADDC(64, Y2, Y11)
	TAP_ADDC(96, Y3, Y12)
	TAP_ADDC(128, Y4, Y9)
	TAP_ADDC(160, Y5, Y10)
	TAP_ADDC(192, Y6, Y11)
	TAP_ADDC(224, Y7, Y12)
tstore64:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $64, CX
	JMP  tblock64

tblock32:
	CMPQ CX, $32
	JLT  tblock16
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TAP_RESET
tloop32:
	TAP_S(tskip32)
	MADD(0, Y0, Y9)
	MADD(32, Y1, Y10)
	MADD(64, Y2, Y11)
	MADD(96, Y3, Y12)
tskip32:
	TAP_NEXT(tloop32)
	CMPB add+56(FP), $0
	JEQ  tstore32
	TAP_ADDC(0, Y0, Y9)
	TAP_ADDC(32, Y1, Y10)
	TAP_ADDC(64, Y2, Y11)
	TAP_ADDC(96, Y3, Y12)
tstore32:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, CX

tblock16:
	CMPQ CX, $16
	JLT  tblock8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	TAP_RESET
tloop16:
	TAP_S(tskip16)
	MADD(0, Y0, Y9)
	MADD(32, Y1, Y10)
tskip16:
	TAP_NEXT(tloop16)
	CMPB add+56(FP), $0
	JEQ  tstore16
	TAP_ADDC(0, Y0, Y9)
	TAP_ADDC(32, Y1, Y10)
tstore16:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $16, CX

tblock8:
	CMPQ CX, $8
	JLT  ttail
	VXORPS Y0, Y0, Y0
	TAP_RESET
tloop8:
	TAP_S(tskip8)
	MADD(0, Y0, Y9)
tskip8:
	TAP_NEXT(tloop8)
	CMPB add+56(FP), $0
	JEQ  tstore8
	TAP_ADDC(0, Y0, Y9)
tstore8:
	VMOVUPS Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, CX

ttail:
	// The last n%8 columns through masked loads and a masked store.
	TESTQ CX, CX
	JZ    tdone
	LEAQ  lanemask<>+64(SB), AX
	SHLQ  $2, CX
	SUBQ  CX, AX
	VMOVDQU (AX), Y13
	VXORPS Y0, Y0, Y0
	TAP_RESET
tlooptail:
	TAP_S(tskiptail)
	VMASKMOVPS (R12), Y13, Y9
	VMULPS Y9, Y8, Y9
	VADDPS Y9, Y0, Y0
tskiptail:
	TAP_NEXT(tlooptail)
	CMPB add+56(FP), $0
	JEQ  tstoretail
	VMASKMOVPS (DI), Y13, Y9
	VADDPS Y0, Y9, Y0
tstoretail:
	VMASKMOVPS Y0, Y13, (DI)

tdone:
	VZEROUPPER
	RET

// TRANSPOSE4 turns Y0..Y3 — each holding four consecutive k of B row r in
// its low half and of B row r+4 in its high half — into Y0..Y3 each holding
// one k of all eight B rows, lane j = row j. Y4..Y7 are scratch.
#define TRANSPOSE4 \
	VUNPCKLPS Y1, Y0, Y4; \
	VUNPCKHPS Y1, Y0, Y5; \
	VUNPCKLPS Y3, Y2, Y6; \
	VUNPCKHPS Y3, Y2, Y7; \
	VSHUFPS   $0x44, Y6, Y4, Y0; \
	VSHUFPS   $0xEE, Y6, Y4, Y1; \
	VSHUFPS   $0x44, Y7, Y5, Y2; \
	VSHUFPS   $0xEE, Y7, Y5, Y3

// LOAD4 reads four consecutive k of the eight B rows at DX (rows 0..3) and
// R11 (rows 4..7); R12 is the row stride, R13 three times it.
#define LOAD4 \
	VMOVUPS     (DX), X0; \
	VMOVUPS     (DX)(R12*1), X1; \
	VMOVUPS     (DX)(R12*2), X2; \
	VMOVUPS     (DX)(R13*1), X3; \
	VINSERTF128 $1, (R11), Y0, Y0; \
	VINSERTF128 $1, (R11)(R12*1), Y1, Y1; \
	VINSERTF128 $1, (R11)(R12*2), Y2, Y2; \
	VINSERTF128 $1, (R11)(R13*1), Y3, Y3

// LOAD4MASKED is LOAD4 for the last k%4 columns: X15 masks the lanes that
// exist, so nothing past a row's end is read.
#define LOAD4MASKED \
	VMASKMOVPS  (DX), X15, X0; \
	VMASKMOVPS  (DX)(R12*1), X15, X1; \
	VMASKMOVPS  (DX)(R12*2), X15, X2; \
	VMASKMOVPS  (DX)(R13*1), X15, X3; \
	VMASKMOVPS  (R11), X15, X4; \
	VMASKMOVPS  (R11)(R12*1), X15, X5; \
	VMASKMOVPS  (R11)(R12*2), X15, X6; \
	VMASKMOVPS  (R11)(R13*1), X15, X7; \
	VINSERTF128 $1, X4, Y0, Y0; \
	VINSERTF128 $1, X5, Y1, Y1; \
	VINSERTF128 $1, X6, Y2, Y2; \
	VINSERTF128 $1, X7, Y3, Y3

// DOT4 adds one k's products into the four row accumulators Y8..Y11: bt
// holds that k of eight B rows, SI points at op(A)[i0, k] with R8 the
// stride between op(A) rows (R9 three times it) and R10 between k.
#define DOT4(bt) \
	VBROADCASTSS (SI), Y12; \
	VBROADCASTSS (SI)(R8*1), Y13; \
	VBROADCASTSS (SI)(R8*2), Y14; \
	VBROADCASTSS (SI)(R9*1), Y15; \
	VMULPS bt, Y12, Y12; \
	VMULPS bt, Y13, Y13; \
	VMULPS bt, Y14, Y14; \
	VMULPS bt, Y15, Y15; \
	VADDPS Y12, Y8, Y8; \
	VADDPS Y13, Y9, Y9; \
	VADDPS Y14, Y10, Y10; \
	VADDPS Y15, Y11, Y11; \
	ADDQ   R10, SI

// DOT1 is DOT4 for a single op(A) row.
#define DOT1(bt) \
	VBROADCASTSS (SI), Y12; \
	VMULPS bt, Y12, Y12; \
	VADDPS Y12, Y8, Y8; \
	ADDQ   R10, SI

// The three stores land a row of sums on C through the lane mask Y7, as the
// portable kernel's beta prologue followed by `c += alpha*sum` would: Y6 is
// alpha, Y5 beta, Y4 zero (the explicit 0 + keeps a -0 product from
// surviving beta == 0). DI walks down C by AX.
#define STORE_BETA0(acc) \
	VMULPS acc, Y6, acc; \
	VADDPS acc, Y4, acc; \
	VMASKMOVPS acc, Y7, (DI); \
	ADDQ AX, DI

#define STORE_BETA1(acc) \
	VMASKMOVPS (DI), Y7, Y12; \
	VMULPS acc, Y6, acc; \
	VADDPS acc, Y12, acc; \
	VMASKMOVPS acc, Y7, (DI); \
	ADDQ AX, DI

#define STORE_BETAX(acc) \
	VMASKMOVPS (DI), Y7, Y12; \
	VMULPS Y5, Y12, Y12; \
	VMULPS acc, Y6, acc; \
	VADDPS acc, Y12, acc; \
	VMASKMOVPS acc, Y7, (DI); \
	ADDQ AX, DI

// DOT_STRIDES turns the element strides just loaded into byte strides and
// splits k: CX = k/4 transposed quads, BX = k%4.
#define DOT_STRIDES \
	SHLQ $2, R10; \
	SHLQ $2, R12; \
	LEAQ (R12)(R12*2), R13; \
	LEAQ (DX)(R12*4), R11; \
	MOVQ CX, BX; \
	ANDQ $3, BX; \
	SHRQ $2, CX

// DOT_STORE_SETUP readies the stores: the C row stride in bytes, the mask
// that drops the first lane0 (CX) lanes, and the zero vector.
#define DOT_STORE_SETUP \
	SHLQ $2, AX; \
	SHLQ $2, CX; \
	LEAQ lanemask<>+32(SB), R8; \
	SUBQ CX, R8; \
	VMOVDQU (R8), Y7; \
	VXORPS Y4, Y4, Y4

// DOT_TAILMASK loads the k%4 lane mask into X15.
#define DOT_TAILMASK \
	LEAQ lanemask<>+64(SB), AX; \
	SHLQ $2, BX; \
	SUBQ BX, AX; \
	SHRQ $2, BX; \
	VMOVDQU (AX), X15

// func dotTile4AVX2(k int, a *float32, sap int, b *float32, ldb int, c *float32, ldc, lane0 int, alpha, beta float32, sai int)
//
// A 4×8 tile of C in the dot order: lane j of accumulator r sums
// a[r*sai+p*sap] * b[j*ldb+p] for ascending p — one lane per output, no
// horizontal step, k never split — and lands as beta-scaled C plus
// alpha*sum. B's eight rows are transposed in registers four k at a time.
// Lanes below lane0 are computed but not stored.
TEXT ·dotTile4AVX2(SB), NOSPLIT, $0-80
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ sap+16(FP), R10
	MOVQ b+24(FP), DX
	MOVQ ldb+32(FP), R12
	DOT_STRIDES
	MOVQ sai+72(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	TESTQ CX, CX
	JZ    tail4
quad4:
	LOAD4
	TRANSPOSE4
	DOT4(Y0)
	DOT4(Y1)
	DOT4(Y2)
	DOT4(Y3)
	ADDQ $16, DX
	ADDQ $16, R11
	DECQ CX
	JNZ  quad4
tail4:
	TESTQ BX, BX
	JZ    store4
	DOT_TAILMASK
	LOAD4MASKED
	TRANSPOSE4
	DOT4(Y0)
	DECQ BX
	JZ   store4
	DOT4(Y1)
	DECQ BX
	JZ   store4
	DOT4(Y2)
store4:
	MOVQ c+40(FP), DI
	MOVQ ldc+48(FP), AX
	MOVQ lane0+56(FP), CX
	VBROADCASTSS alpha+64(FP), Y6
	VBROADCASTSS beta+68(FP), Y5
	MOVL beta+68(FP), BX
	DOT_STORE_SETUP
	TESTL $0x7fffffff, BX
	JZ    store4beta0
	CMPL  BX, $0x3f800000
	JEQ   store4beta1
	STORE_BETAX(Y8)
	STORE_BETAX(Y9)
	STORE_BETAX(Y10)
	STORE_BETAX(Y11)
	VZEROUPPER
	RET
store4beta0:
	STORE_BETA0(Y8)
	STORE_BETA0(Y9)
	STORE_BETA0(Y10)
	STORE_BETA0(Y11)
	VZEROUPPER
	RET
store4beta1:
	STORE_BETA1(Y8)
	STORE_BETA1(Y9)
	STORE_BETA1(Y10)
	STORE_BETA1(Y11)
	VZEROUPPER
	RET

// func dotTile1AVX2(k int, a *float32, sap int, b *float32, ldb int, c *float32, ldc, lane0 int, alpha, beta float32)
//
// dotTile4AVX2 for a single row of C — the m%4 remainder.
TEXT ·dotTile1AVX2(SB), NOSPLIT, $0-72
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ sap+16(FP), R10
	MOVQ b+24(FP), DX
	MOVQ ldb+32(FP), R12
	DOT_STRIDES
	VXORPS Y8, Y8, Y8
	TESTQ CX, CX
	JZ    tail1
quad1:
	LOAD4
	TRANSPOSE4
	DOT1(Y0)
	DOT1(Y1)
	DOT1(Y2)
	DOT1(Y3)
	ADDQ $16, DX
	ADDQ $16, R11
	DECQ CX
	JNZ  quad1
tail1:
	TESTQ BX, BX
	JZ    store1
	DOT_TAILMASK
	LOAD4MASKED
	TRANSPOSE4
	DOT1(Y0)
	DECQ BX
	JZ   store1
	DOT1(Y1)
	DECQ BX
	JZ   store1
	DOT1(Y2)
store1:
	MOVQ c+40(FP), DI
	MOVQ ldc+48(FP), AX
	MOVQ lane0+56(FP), CX
	VBROADCASTSS alpha+64(FP), Y6
	VBROADCASTSS beta+68(FP), Y5
	MOVL beta+68(FP), BX
	DOT_STORE_SETUP
	TESTL $0x7fffffff, BX
	JZ    store1beta0
	CMPL  BX, $0x3f800000
	JEQ   store1beta1
	STORE_BETAX(Y8)
	VZEROUPPER
	RET
store1beta0:
	STORE_BETA0(Y8)
	VZEROUPPER
	RET
store1beta1:
	STORE_BETA1(Y8)
	VZEROUPPER
	RET

// TAP_DOT4 is DOT4 for A rows contiguous along k: off is the byte offset of
// this k within the current quad, and SI moves once per quad.
#define TAP_DOT4(bt, off) \
	VBROADCASTSS off(SI), Y12; \
	VBROADCASTSS off(SI)(R8*1), Y13; \
	VBROADCASTSS off(SI)(R8*2), Y14; \
	VBROADCASTSS off(SI)(R9*1), Y15; \
	VMULPS bt, Y12, Y12; \
	VMULPS bt, Y13, Y13; \
	VMULPS bt, Y14, Y14; \
	VMULPS bt, Y15, Y15; \
	VADDPS Y12, Y8, Y8; \
	VADDPS Y13, Y9, Y9; \
	VADDPS Y14, Y10, Y10; \
	VADDPS Y15, Y11, Y11

// TAP_FIRST lands a row of sums on C as the first image of a chunk does on a
// cleared partial, 0 + sum; TAP_ACCUM as every later one, c + sum. Y7 is the
// lane mask, Y4 zero, DI the row of C.
#define TAP_FIRST(acc) \
	VADDPS acc, Y4, acc; \
	VMASKMOVPS acc, Y7, (DI)

#define TAP_ACCUM(acc) \
	VMASKMOVPS (DI), Y7, Y12; \
	VADDPS acc, Y12, acc; \
	VMASKMOVPS acc, Y7, (DI)

// func dotTapsAVX2(k int, a *float32, sai, rows int, b *float32, offs *int, c *float32, ldc, lane0 int, add bool)
//
// dotTile4AVX2 with alpha 1 for B rows that sit at eight arbitrary offsets
// from b (offs[0..8), in elements) instead of a leading dimension apart: lane
// j of accumulator r sums a[r*sai+p] * b[offs[j]+p] for ascending p, k never
// split, and lands as 0 + sum, or c + sum when add is set. rows is 4, or 1 —
// then only the first row of C is stored (the other three accumulators
// recompute row 0: sai is ignored).
TEXT ·dotTapsAVX2(SB), NOSPLIT, $0-73
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+32(FP), DX
	MOVQ offs+40(FP), R9
	MOVQ 0(R9), AX
	MOVQ 8(R9), BX
	MOVQ 16(R9), DI
	MOVQ 24(R9), R10
	MOVQ 32(R9), R11
	MOVQ 40(R9), R12
	MOVQ 48(R9), R13
	MOVQ 56(R9), R14
	SHLQ $2, AX
	SHLQ $2, BX
	SHLQ $2, DI
	SHLQ $2, R10
	SHLQ $2, R11
	SHLQ $2, R12
	SHLQ $2, R13
	SHLQ $2, R14
	MOVQ sai+16(FP), R8
	SHLQ $2, R8
	CMPQ rows+24(FP), $4
	JEQ  tapstrides
	XORQ R8, R8
tapstrides:
	LEAQ (R8)(R8*2), R9
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	SHRQ $2, CX
	JZ   taptail
tapquad:
	VMOVUPS     (DX)(AX*1), X0
	VMOVUPS     (DX)(BX*1), X1
	VMOVUPS     (DX)(DI*1), X2
	VMOVUPS     (DX)(R10*1), X3
	VINSERTF128 $1, (DX)(R11*1), Y0, Y0
	VINSERTF128 $1, (DX)(R12*1), Y1, Y1
	VINSERTF128 $1, (DX)(R13*1), Y2, Y2
	VINSERTF128 $1, (DX)(R14*1), Y3, Y3
	TRANSPOSE4
	TAP_DOT4(Y0, 0)
	TAP_DOT4(Y1, 4)
	TAP_DOT4(Y2, 8)
	TAP_DOT4(Y3, 12)
	ADDQ $16, SI
	ADDQ $16, DX
	DECQ CX
	JNZ  tapquad
taptail:
	// The last k%4 columns through a masked load.
	MOVQ k+0(FP), CX
	ANDQ $3, CX
	JZ   tapstore
	CMPQ CX, $2
	JEQ  tapmask2
	JGT  tapmask3
	VMOVDQU lanemask<>+60(SB), X15
	JMP  taploadtail
tapmask2:
	VMOVDQU lanemask<>+56(SB), X15
	JMP  taploadtail
tapmask3:
	VMOVDQU lanemask<>+52(SB), X15
taploadtail:
	VMASKMOVPS  (DX)(AX*1), X15, X0
	VMASKMOVPS  (DX)(BX*1), X15, X1
	VMASKMOVPS  (DX)(DI*1), X15, X2
	VMASKMOVPS  (DX)(R10*1), X15, X3
	VMASKMOVPS  (DX)(R11*1), X15, X4
	VMASKMOVPS  (DX)(R12*1), X15, X5
	VMASKMOVPS  (DX)(R13*1), X15, X6
	VMASKMOVPS  (DX)(R14*1), X15, X7
	VINSERTF128 $1, X4, Y0, Y0
	VINSERTF128 $1, X5, Y1, Y1
	VINSERTF128 $1, X6, Y2, Y2
	VINSERTF128 $1, X7, Y3, Y3
	TRANSPOSE4
	TAP_DOT4(Y0, 0)
	DECQ CX
	JZ   tapstore
	TAP_DOT4(Y1, 4)
	DECQ CX
	JZ   tapstore
	TAP_DOT4(Y2, 8)
tapstore:
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), AX
	MOVQ lane0+64(FP), CX
	DOT_STORE_SETUP
	CMPB add+72(FP), $0
	JNE  tapaccum
	TAP_FIRST(Y8)
	CMPQ rows+24(FP), $4
	JNE  tapdone
	ADDQ AX, DI
	TAP_FIRST(Y9)
	ADDQ AX, DI
	TAP_FIRST(Y10)
	ADDQ AX, DI
	TAP_FIRST(Y11)
	VZEROUPPER
	RET
tapaccum:
	TAP_ACCUM(Y8)
	CMPQ rows+24(FP), $4
	JNE  tapdone
	ADDQ AX, DI
	TAP_ACCUM(Y9)
	ADDQ AX, DI
	TAP_ACCUM(Y10)
	ADDQ AX, DI
	TAP_ACCUM(Y11)
tapdone:
	VZEROUPPER
	RET
