//go:build amd64 && !purego

#include "textflag.h"

// AVX2 popcount kernels: per-byte population counts via a vpshufb
// nibble lookup table, reduced to per-qword sums with vpsadbw against
// zero. See kernel.go for the dispatch rules and kernel_test.go for
// the golden-reference cross-checks.
//
// Every instruction that touches an X register is VEX-encoded (VMOVQ,
// not MOVQ). A legacy-SSE instruction next to 256-bit code pays an
// AVX/SSE transition: one MOVQ X, AX cost ~150 ns per call on an AVX2
// server core, against ~20 ns for a whole one-slice TileOU call.
// TestKernelAsmVEXOnly enforces the rule.

// nibblePop<> is popcount(i) for i in 0..15, replicated across both
// 128-bit lanes (vpshufb shuffles within lanes).
DATA nibblePop<>+0x00(SB)/8, $0x0302020102010100
DATA nibblePop<>+0x08(SB)/8, $0x0403030203020201
DATA nibblePop<>+0x10(SB)/8, $0x0302020102010100
DATA nibblePop<>+0x18(SB)/8, $0x0403030203020201
GLOBL nibblePop<>(SB), RODATA|NOPTR, $32

DATA lowNibbles<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA lowNibbles<>+0x08(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA lowNibbles<>+0x10(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA lowNibbles<>+0x18(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL lowNibbles<>(SB), RODATA|NOPTR, $32

// BYTEPOP replaces each byte of x with its population count (t is
// clobbered; Y4 holds nibblePop, Y5 lowNibbles).
#define BYTEPOP(x, t) \
	VPSRLW  $4, x, t; \
	VPAND   x, Y5, x; \
	VPAND   t, Y5, t; \
	VPSHUFB x, Y4, x; \
	VPSHUFB t, Y4, t; \
	VPADDB  x, t, x

// TILEOU_SETUP sets up the loop invariants shared by both TileOU
// shapes, given CX = log2(swl): Y10 swl-1 in every qword, X11
// log2(swl), Y12/Y13 the zeroed OU and wordline sums.
#define TILEOU_SETUP \
	MOVQ    $1, AX; \
	SHLQ    CX, AX; \
	DECQ    AX; \
	VMOVQ   AX, X10; \
	VPBROADCASTQ X10, Y10; \
	VMOVQ   CX, X11; \
	VMOVDQU nibblePop<>(SB), Y4; \
	VMOVDQU lowNibbles<>(SB), Y5; \
	VPXOR   Y6, Y6, Y6; \
	VPXOR   Y12, Y12, Y12; \
	VPXOR   Y13, Y13, Y13

// TILEOU_ACC folds four group counts (qwords of x) into the sums:
// Y13 += nz, Y12 += (nz + swl-1) >> log2(swl).
#define TILEOU_ACC(x) \
	VPADDQ  x, Y13, Y13; \
	VPADDQ  Y10, x, x; \
	VPSRLQ  X11, x, x; \
	VPADDQ  x, Y12, Y12

// TILEOU_DONE reduces the OU sum into AX and the wordline sum into BX.
#define TILEOU_DONE \
	VEXTRACTI128 $1, Y12, X1; \
	VPADDQ  X1, X12, X12; \
	VPSRLDQ $8, X12, X1; \
	VPADDQ  X1, X12, X12; \
	VMOVQ   X12, AX; \
	VEXTRACTI128 $1, Y13, X1; \
	VPADDQ  X1, X13, X13; \
	VPSRLDQ $8, X13, X1; \
	VPADDQ  X1, X13, X13; \
	VMOVQ   X13, BX; \
	VZEROUPPER

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func popcntAVX2(p *uint64, n int) int
TEXT ·popcntAVX2(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	XORQ AX, AX                  // running total
	CMPQ CX, $4
	JL   scalar
	VMOVDQU nibblePop<>(SB), Y4
	VMOVDQU lowNibbles<>(SB), Y5
	VPXOR Y6, Y6, Y6             // zero, for vpsadbw
	VPXOR Y7, Y7, Y7             // qword accumulators

loop4:
	VMOVDQU (SI), Y0
	VPAND   Y0, Y5, Y1           // low nibbles
	VPSRLW  $4, Y0, Y2
	VPAND   Y2, Y5, Y2           // high nibbles
	VPSHUFB Y1, Y4, Y1           // LUT: per-nibble popcounts
	VPSHUFB Y2, Y4, Y2
	VPADDB  Y1, Y2, Y1           // per-byte popcounts
	VPSADBW Y6, Y1, Y1           // 4 per-qword sums
	VPADDQ  Y1, Y7, Y7
	ADDQ    $32, SI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     loop4

	// Reduce the 4 qword accumulators.
	VEXTRACTI128 $1, Y7, X1
	VPADDQ  X1, X7, X7
	VPSRLDQ $8, X7, X1
	VPADDQ  X1, X7, X7
	VMOVQ   X7, AX
	VZEROUPPER

scalar:
	TESTQ CX, CX
	JZ    done

tail:
	POPCNTQ (SI), DX
	ADDQ  DX, AX
	ADDQ  $8, SI
	DECQ  CX
	JNZ   tail

done:
	MOVQ AX, ret+16(FP)
	RET

// func countAndPlanes1AVX2(mask uint64, plane *uint64, counts *int, groups int)
// One word per group, 4 groups per iteration; groups is a positive
// multiple of 4. vpsadbw's per-qword sums are exactly the per-group
// counts, stored directly as 4 int64s.
TEXT ·countAndPlanes1AVX2(SB), NOSPLIT, $0-32
	MOVQ mask+0(FP), AX
	MOVQ plane+8(FP), SI
	MOVQ counts+16(FP), DI
	MOVQ groups+24(FP), CX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0          // mask in every qword
	VMOVDQU nibblePop<>(SB), Y4
	VMOVDQU lowNibbles<>(SB), Y5
	VPXOR Y6, Y6, Y6

loop1:
	VMOVDQU (SI), Y1             // 4 group words
	VPAND   Y0, Y1, Y1
	VPAND   Y1, Y5, Y2
	VPSRLW  $4, Y1, Y3
	VPAND   Y3, Y5, Y3
	VPSHUFB Y2, Y4, Y2
	VPSHUFB Y3, Y4, Y3
	VPADDB  Y2, Y3, Y2
	VPSADBW Y6, Y2, Y2           // counts for the 4 groups
	VMOVDQU Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     loop1

	VZEROUPPER
	RET

// func countAndPlanes2AVX2(mask *uint64, plane *uint64, counts *int, groups int)
// Two words per group, 2 groups per iteration; groups is a positive
// multiple of 2. The two-word mask is lane-replicated with
// vbroadcasti128 so one YMM holds two consecutive groups.
TEXT ·countAndPlanes2AVX2(SB), NOSPLIT, $0-32
	MOVQ mask+0(FP), AX
	MOVQ plane+8(FP), SI
	MOVQ counts+16(FP), DI
	MOVQ groups+24(FP), CX
	VBROADCASTI128 (AX), Y0      // [m0 m1 m0 m1]
	VMOVDQU nibblePop<>(SB), Y4
	VMOVDQU lowNibbles<>(SB), Y5
	VPXOR Y6, Y6, Y6

loop2:
	VMOVDQU (SI), Y1             // [g0w0 g0w1 g1w0 g1w1]
	VPAND   Y0, Y1, Y1
	VPAND   Y1, Y5, Y2
	VPSRLW  $4, Y1, Y3
	VPAND   Y3, Y5, Y3
	VPSHUFB Y2, Y4, Y2
	VPSHUFB Y3, Y4, Y3
	VPADDB  Y2, Y3, Y2
	VPSADBW Y6, Y2, Y2           // [q0 q1 q2 q3]
	VPSRLDQ $8, Y2, Y3           // [q1 0 q3 0]
	VPADDQ  Y3, Y2, Y2           // [q0+q1 _ q2+q3 _]
	VPERMQ  $0x08, Y2, Y2        // low xmm = [q0+q1, q2+q3]
	VMOVDQU X2, (DI)
	ADDQ    $32, SI
	ADDQ    $16, DI
	SUBQ    $2, CX
	JNZ     loop2

	VZEROUPPER
	RET

// func tileOU8x1AVX2(masks *uint64, stride int, ne uint64, plane *uint64, shift int) (ous, wl int64)
// Eight one-word groups: the plane is Y8 (groups 0-3) and Y9 (4-7).
// Each set slice broadcasts its mask word and yields the eight counts
// as two vpsadbw results.
TEXT ·tileOU8x1AVX2(SB), NOSPLIT, $0-56
	MOVQ    masks+0(FP), SI
	MOVQ    stride+8(FP), R8
	SHLQ    $3, R8               // stride in bytes
	MOVQ    ne+16(FP), DX
	MOVQ    plane+24(FP), DI
	MOVQ    shift+32(FP), CX
	TILEOU_SETUP
	VMOVDQU (DI), Y8
	VMOVDQU 32(DI), Y9

loop8x1:
	BSFQ    DX, BX               // next set slice
	IMULQ   R8, BX
	VPBROADCASTQ (SI)(BX*1), Y0
	VPAND   Y0, Y8, Y1
	VPAND   Y0, Y9, Y2
	BYTEPOP(Y1, Y3)
	BYTEPOP(Y2, Y3)
	VPSADBW Y6, Y1, Y1           // nz of groups 0-3
	VPSADBW Y6, Y2, Y2           // nz of groups 4-7
	TILEOU_ACC(Y1)
	TILEOU_ACC(Y2)
	LEAQ    -1(DX), AX
	ANDQ    AX, DX
	JNZ     loop8x1

	TILEOU_DONE
	MOVQ    AX, ous+40(FP)
	MOVQ    BX, wl+48(FP)
	RET

// func tileOU8x2AVX2(masks *uint64, stride int, ne uint64, plane *uint64, shift int) (ous, wl int64)
// Eight two-word groups: the plane is Y8, Y9, Y14, Y15, two groups per
// register ([g0w0 g0w1 g1w0 g1w1], ...). The two-word mask is
// lane-replicated; after the byte popcounts, unpacking two registers'
// low and high qwords and adding bytes (each at most 16) lines up both
// words of four groups, so one vpsadbw yields their counts.
TEXT ·tileOU8x2AVX2(SB), NOSPLIT, $0-56
	MOVQ    masks+0(FP), SI
	MOVQ    stride+8(FP), R8
	SHLQ    $3, R8               // stride in bytes
	MOVQ    ne+16(FP), DX
	MOVQ    plane+24(FP), DI
	MOVQ    shift+32(FP), CX
	TILEOU_SETUP
	VMOVDQU (DI), Y8
	VMOVDQU 32(DI), Y9
	VMOVDQU 64(DI), Y14
	VMOVDQU 96(DI), Y15

loop8x2:
	BSFQ    DX, BX               // next set slice
	IMULQ   R8, BX
	VBROADCASTI128 (SI)(BX*1), Y0 // [m0 m1 m0 m1]
	VPAND   Y0, Y8, Y1
	VPAND   Y0, Y9, Y2
	BYTEPOP(Y1, Y3)
	BYTEPOP(Y2, Y3)
	VPUNPCKLQDQ Y2, Y1, Y3       // word 0 of groups 0, 2, 1, 3
	VPUNPCKHQDQ Y2, Y1, Y1       // word 1 of groups 0, 2, 1, 3
	VPADDB  Y3, Y1, Y1
	VPSADBW Y6, Y1, Y1           // nz of groups 0, 2, 1, 3
	VPAND   Y0, Y14, Y2
	VPAND   Y0, Y15, Y7
	BYTEPOP(Y2, Y3)
	BYTEPOP(Y7, Y3)
	VPUNPCKLQDQ Y7, Y2, Y3
	VPUNPCKHQDQ Y7, Y2, Y2
	VPADDB  Y3, Y2, Y2
	VPSADBW Y6, Y2, Y2           // nz of groups 4, 6, 5, 7
	TILEOU_ACC(Y1)
	TILEOU_ACC(Y2)
	LEAQ    -1(DX), AX
	ANDQ    AX, DX
	JNZ     loop8x2

	TILEOU_DONE
	MOVQ    AX, ous+40(FP)
	MOVQ    BX, wl+48(FP)
	RET
