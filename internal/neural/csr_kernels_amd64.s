//go:build amd64 && !purego

#include "textflag.h"

// The sparse-kernel inner loops. Lanes are independent accumulators, and
// multiply and add are separate IEEE operations (no FMA), so these produce
// exactly the bits of the generic Go loops.

// func x86HasAVX() bool
TEXT ·x86HasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX       // OSXSAVE
	JCC  no
	BTL  $28, CX       // AVX
	JCC  no
	XORL CX, CX
	XGETBV             // XCR0 in AX
	ANDL $6, AX        // XMM|YMM state enabled by the OS
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func csrGatherAVX(h, w *float64, idx *int32, val *float64, nnz, n int)
//
// for p in [0,nnz): h[0:n] += w[idx[p]*n : +n] * val[p]
//
// Register-blocked: a block of 16 lanes of h lives in Y4-Y7 across all nnz
// nonzeros and is stored once, then the remaining lanes go 4 at a time
// (Y4), then one at a time (X4). Every lane still receives val[p]*w in
// nonzero order, one rounded multiply then one rounded add per nonzero.
TEXT ·csrGatherAVX(SB), NOSPLIT, $0-48
	MOVQ h+0(FP), DI       // h cursor (current block)
	MOVQ w+8(FP), SI       // w + block lane offset
	MOVQ idx+16(FP), DX
	MOVQ val+24(FP), CX
	MOVQ nnz+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ R9, R12           // lanes left
	TESTQ R8, R8
	JE    gdone
g16:
	CMPQ R12, $16
	JLT  g4
	VMOVUPD 0(DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD 96(DI), Y7
	MOVQ DX, R13           // idx cursor
	MOVQ CX, AX            // val cursor
	MOVQ R8, BX            // nonzeros left
g16loop:
	MOVLQSX (R13), R10     // col = idx[p]
	IMULQ   R9, R10        // col*n
	LEAQ    (SI)(R10*8), R14
	VBROADCASTSD (AX), Y0  // val[p] in all lanes
	VMULPD  0(R14), Y0, Y1
	VMULPD  32(R14), Y0, Y2
	VMULPD  64(R14), Y0, Y3
	VMULPD  96(R14), Y0, Y8
	VADDPD  Y1, Y4, Y4
	VADDPD  Y2, Y5, Y5
	VADDPD  Y3, Y6, Y6
	VADDPD  Y8, Y7, Y7
	ADDQ $4, R13
	ADDQ $8, AX
	DECQ BX
	JNE  g16loop
	VMOVUPD Y4, 0(DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, R12
	JMP  g16
g4:
	CMPQ R12, $4
	JLT  g1
	VMOVUPD (DI), Y4
	MOVQ DX, R13
	MOVQ CX, AX
	MOVQ R8, BX
g4loop:
	MOVLQSX (R13), R10
	IMULQ   R9, R10
	LEAQ    (SI)(R10*8), R14
	VBROADCASTSD (AX), Y0
	VMULPD  (R14), Y0, Y1
	VADDPD  Y1, Y4, Y4
	ADDQ $4, R13
	ADDQ $8, AX
	DECQ BX
	JNE  g4loop
	VMOVUPD Y4, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, R12
	JMP  g4
g1:
	TESTQ R12, R12
	JE    gdone
	VMOVSD (DI), X4
	MOVQ DX, R13
	MOVQ CX, AX
	MOVQ R8, BX
g1loop:
	MOVLQSX (R13), R10
	IMULQ   R9, R10
	LEAQ    (SI)(R10*8), R14
	VMOVSD  (R14), X1
	VMULSD  (AX), X1, X1
	VADDSD  X1, X4, X4
	ADDQ $4, R13
	ADDQ $8, AX
	DECQ BX
	JNE  g1loop
	VMOVSD X4, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	DECQ R12
	JMP  g1
gdone:
	VZEROUPPER
	RET

// func csrScatterAVX(gw, dh *float64, idx *int32, val *float64, nnz, n int)
//
// for p in [0,nnz): gw[idx[p]*n : +n] += dh[0:n] * val[p]
TEXT ·csrScatterAVX(SB), NOSPLIT, $0-48
	MOVQ gw+0(FP), DI
	MOVQ dh+8(FP), SI
	MOVQ idx+16(FP), DX
	MOVQ val+24(FP), CX
	MOVQ nnz+32(FP), R8
	MOVQ n+40(FP), R9
sploop:
	MOVLQSX (DX), R10
	IMULQ   R9, R10
	LEAQ    (DI)(R10*8), R14  // destination column
	VBROADCASTSD (CX), Y0
	MOVQ    SI, R13           // dh cursor
	MOVQ    R9, R12
svloop:
	CMPQ R12, $4
	JLT  stail
	VMOVUPD (R13), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (R14), Y1, Y1
	VMOVUPD Y1, (R14)
	ADDQ $32, R13
	ADDQ $32, R14
	SUBQ $4, R12
	JMP  svloop
stail:
	// VEX-encoded scalar ops: legacy SSE here, with the upper YMM halves
	// dirty, pays an AVX-SSE transition penalty per instruction.
	TESTQ R12, R12
	JE    snext
	VMOVSD (R13), X1
	VMULSD X0, X1, X1
	VADDSD (R14), X1, X1
	VMOVSD X1, (R14)
	ADDQ  $8, R13
	ADDQ  $8, R14
	DECQ  R12
	JMP   stail
snext:
	ADDQ $4, DX
	ADDQ $8, CX
	DECQ R8
	JNE  sploop
	VZEROUPPER
	RET
