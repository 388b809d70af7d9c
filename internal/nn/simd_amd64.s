// AVX2+FMA kernels for the batched minibatch path. Selected at init
// by detectAVX2FMA (simd_amd64.go); the pure-Go kernels in batch.go
// are the fallback and the reference implementation.

#include "textflag.h"

// func cpuidx(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuidx(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func matmulasm(out *float64, ldo int, x *float64, ldx int, m *float64, ldm int, rows, k, n int)
//
// out[r·ldo+c] = Σ_j x[r·ldx+j]·m[j·ldm+c] for r < rows, c < n, j < k,
// vectorized over the output column c. Each output keeps the
// summation order of matmulGo (batch.go) bit for bit: four residue
// FMA chains over j < k&^3 (chain i takes j ≡ i mod 4), reduced as
// (l0+l2)+(l1+l3), then the k&3 tail FMA'd in order. Lane-wise that is
// plain vertical arithmetic, so no horizontal adds are needed.
//
// Columns go in 8-wide panels (eight accumulators: four chains × two
// vectors), then one 4-wide block, then single columns. The panel loop
// is outside the row loop so one panel of m stays in L1 while every
// row streams past it. Callers guarantee rows ≥ 1, k ≥ 1, n ≥ 1 and
// in-bounds strides (matmul checks them).
//
// Registers: R10/R12 walk m/out by column block; SI walks x (R9 is the
// gap from a row's end to the next row's start), DI walks m down a
// block, DX is the current out row. R11 = ldm and BX = 3·ldm in bytes,
// R13 = ldo in bytes; AX counts blocks, R8 rows and CX the k loop.
TEXT ·matmulasm(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), R12
	MOVQ ldo+8(FP), R13
	SHLQ $3, R13
	MOVQ ldx+24(FP), R9
	SUBQ k+56(FP), R9
	SHLQ $3, R9
	MOVQ m+32(FP), R10
	MOVQ ldm+40(FP), R11
	SHLQ $3, R11
	LEAQ (R11)(R11*2), BX
	MOVQ n+64(FP), AX
	SHRQ $3, AX
	JZ   mm4

mm8panel:
	MOVQ x+16(FP), SI
	MOVQ R12, DX
	MOVQ rows+48(FP), R8

mm8row:
	MOVQ R10, DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ k+56(FP), CX
	SHRQ $2, CX
	JZ   mm8reduce

mm8k:
	VBROADCASTSD (SI), Y8
	VBROADCASTSD 8(SI), Y9
	VBROADCASTSD 16(SI), Y10
	VBROADCASTSD 24(SI), Y11
	VFMADD231PD (DI), Y8, Y0
	VFMADD231PD 32(DI), Y8, Y4
	VFMADD231PD (DI)(R11*1), Y9, Y1
	VFMADD231PD 32(DI)(R11*1), Y9, Y5
	VFMADD231PD (DI)(R11*2), Y10, Y2
	VFMADD231PD 32(DI)(R11*2), Y10, Y6
	VFMADD231PD (DI)(BX*1), Y11, Y3
	VFMADD231PD 32(DI)(BX*1), Y11, Y7
	ADDQ $32, SI
	LEAQ (DI)(R11*4), DI
	DECQ CX
	JNZ  mm8k

mm8reduce:
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VADDPD Y1, Y0, Y0
	VADDPD Y6, Y4, Y4
	VADDPD Y7, Y5, Y5
	VADDPD Y5, Y4, Y4
	MOVQ k+56(FP), CX
	ANDQ $3, CX
	JZ   mm8store

mm8tail:
	VBROADCASTSD (SI), Y8
	VFMADD231PD (DI), Y8, Y0
	VFMADD231PD 32(DI), Y8, Y4
	ADDQ $8, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  mm8tail

mm8store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y4, 32(DX)
	ADDQ R9, SI
	ADDQ R13, DX
	DECQ R8
	JNZ  mm8row
	ADDQ $64, R10
	ADDQ $64, R12
	DECQ AX
	JNZ  mm8panel

mm4:
	MOVQ n+64(FP), AX
	TESTQ $4, AX
	JZ   mm1
	MOVQ x+16(FP), SI
	MOVQ R12, DX
	MOVQ rows+48(FP), R8

mm4row:
	MOVQ R10, DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ k+56(FP), CX
	SHRQ $2, CX
	JZ   mm4reduce

mm4k:
	VBROADCASTSD (SI), Y8
	VBROADCASTSD 8(SI), Y9
	VBROADCASTSD 16(SI), Y10
	VBROADCASTSD 24(SI), Y11
	VFMADD231PD (DI), Y8, Y0
	VFMADD231PD (DI)(R11*1), Y9, Y1
	VFMADD231PD (DI)(R11*2), Y10, Y2
	VFMADD231PD (DI)(BX*1), Y11, Y3
	ADDQ $32, SI
	LEAQ (DI)(R11*4), DI
	DECQ CX
	JNZ  mm4k

mm4reduce:
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VADDPD Y1, Y0, Y0
	MOVQ k+56(FP), CX
	ANDQ $3, CX
	JZ   mm4store

mm4tail:
	VBROADCASTSD (SI), Y8
	VFMADD231PD (DI), Y8, Y0
	ADDQ $8, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  mm4tail

mm4store:
	VMOVUPD Y0, (DX)
	ADDQ R9, SI
	ADDQ R13, DX
	DECQ R8
	JNZ  mm4row
	ADDQ $32, R10
	ADDQ $32, R12

mm1:
	MOVQ n+64(FP), AX
	ANDQ $3, AX
	JZ   mmdone

mm1col:
	MOVQ x+16(FP), SI
	MOVQ R12, DX
	MOVQ rows+48(FP), R8

mm1row:
	MOVQ R10, DI
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	MOVQ k+56(FP), CX
	SHRQ $2, CX
	JZ   mm1reduce

mm1k:
	VMOVSD (SI), X8
	VMOVSD 8(SI), X9
	VMOVSD 16(SI), X10
	VMOVSD 24(SI), X11
	VFMADD231SD (DI), X8, X0
	VFMADD231SD (DI)(R11*1), X9, X1
	VFMADD231SD (DI)(R11*2), X10, X2
	VFMADD231SD (DI)(BX*1), X11, X3
	ADDQ $32, SI
	LEAQ (DI)(R11*4), DI
	DECQ CX
	JNZ  mm1k

mm1reduce:
	VADDSD X2, X0, X0
	VADDSD X3, X1, X1
	VADDSD X1, X0, X0
	MOVQ k+56(FP), CX
	ANDQ $3, CX
	JZ   mm1store

mm1tail:
	VMOVSD (SI), X8
	VFMADD231SD (DI), X8, X0
	ADDQ $8, SI
	ADDQ R11, DI
	DECQ CX
	JNZ  mm1tail

mm1store:
	VMOVSD X0, (DX)
	ADDQ R9, SI
	ADDQ R13, DX
	DECQ R8
	JNZ  mm1row
	ADDQ $8, R10
	ADDQ $8, R12
	DECQ AX
	JNZ  mm1col

mmdone:
	VZEROUPPER
	RET

// func axpyasm(alpha float64, x, y *float64, n int)
//
// y[0:n] += alpha * x[0:n].
TEXT ·axpyasm(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   ax4

ax8loop:
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  ax8loop

ax4:
	TESTQ $4, CX
	JZ axtail
	VMOVUPD (DI), Y1
	VFMADD231PD (SI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI

axtail:
	ANDQ $3, CX
	JZ   axdone

axstail:
	VMOVSD (DI), X1
	VMOVSD (SI), X2
	VFMADD231SD X2, X0, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  axstail

axdone:
	VZEROUPPER
	RET

// func adamasm(p, grad, m, v *float64, n int, beta1, beta2, lr, eps, b1c, b2c float64)
//
// One Adam update over a parameter slice, 4 doubles per iteration.
// The arithmetic (two moment EMAs, bias-corrected divides, sqrt)
// matches the scalar Go loop operation for operation.
TEXT ·adamasm(SB), NOSPLIT, $0-88
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD beta1+40(FP), Y8
	VBROADCASTSD beta2+48(FP), Y9
	VBROADCASTSD lr+56(FP), Y10
	VBROADCASTSD eps+64(FP), Y11
	VBROADCASTSD b1c+72(FP), Y12
	VBROADCASTSD b2c+80(FP), Y13
	// Y14 = 1-beta1, Y15 = 1-beta2
	MOVQ $0x3FF0000000000000, AX // 1.0
	MOVQ AX, X0
	VBROADCASTSD X0, Y0
	VSUBPD Y8, Y0, Y14
	VSUBPD Y9, Y0, Y15
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   adamtail

adamloop:
	// Mirrors the scalar Go loop operation for operation (no FMA
	// contraction) so results are bit-identical.
	VMOVUPD (SI), Y1            // g
	VMOVUPD (R8), Y2            // m
	VMOVUPD (R9), Y3            // v
	VMULPD Y8, Y2, Y2           // beta1*m
	VMULPD Y14, Y1, Y4          // (1-beta1)*g
	VADDPD Y4, Y2, Y2           // m'
	VMULPD Y15, Y1, Y4          // (1-beta2)*g
	VMULPD Y1, Y4, Y4           // (1-beta2)*g*g
	VMULPD Y9, Y3, Y3           // beta2*v
	VADDPD Y4, Y3, Y3           // v'
	VMOVUPD Y2, (R8)
	VMOVUPD Y3, (R9)
	VDIVPD Y12, Y2, Y5          // mHat = m'/b1c
	VDIVPD Y13, Y3, Y6          // vHat = v'/b2c
	VSQRTPD Y6, Y6
	VADDPD Y11, Y6, Y6          // sqrt(vHat)+eps
	VMULPD Y10, Y5, Y5          // lr*mHat
	VDIVPD Y6, Y5, Y5           // step
	VMOVUPD (DI), Y7
	VSUBPD Y5, Y7, Y7
	VMOVUPD Y7, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ DX
	JNZ  adamloop

adamtail:
	ANDQ $3, CX
	JZ   adamdone

adamstail:
	VMOVSD (SI), X1
	VMOVSD (R8), X2
	VMOVSD (R9), X3
	VMULSD X8, X2, X2
	VMULSD X14, X1, X4
	VADDSD X4, X2, X2
	VMULSD X15, X1, X4
	VMULSD X1, X4, X4
	VMULSD X9, X3, X3
	VADDSD X4, X3, X3
	VMOVSD X2, (R8)
	VMOVSD X3, (R9)
	VDIVSD X12, X2, X5
	VDIVSD X13, X3, X6
	VSQRTSD X6, X6, X6
	VADDSD X11, X6, X6
	VMULSD X10, X5, X5
	VDIVSD X6, X5, X5
	VMOVSD (DI), X7
	VSUBSD X5, X7, X7
	VMOVSD X7, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  adamstail

adamdone:
	VZEROUPPER
	RET

// func axpbyasm(tau float64, x, y *float64, n int)
//
// y = tau*x + (1-tau)*y, with mul/mul/add kept separate so the result
// is bit-identical to the scalar SoftUpdate loop.
TEXT ·axpbyasm(SB), NOSPLIT, $0-32
	VBROADCASTSD tau+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	// Y8 = 1-tau
	MOVQ $0x3FF0000000000000, AX
	MOVQ AX, X1
	VBROADCASTSD X1, Y1
	VSUBPD Y0, Y1, Y8
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   axpbytail

axpbyloop:
	VMULPD (SI), Y0, Y2         // tau*x
	VMULPD (DI), Y8, Y3         // (1-tau)*y
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  axpbyloop

axpbytail:
	ANDQ $3, CX
	JZ   axpbydone

axpbystail:
	VMOVSD (SI), X2
	VMULSD X0, X2, X2
	VMOVSD (DI), X3
	VMULSD X8, X3, X3
	VADDSD X3, X2, X2
	VMOVSD X2, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  axpbystail

axpbydone:
	VZEROUPPER
	RET

// func scaleasm(f float64, x *float64, n int)
//
// x *= f.
TEXT ·scaleasm(SB), NOSPLIT, $0-24
	VBROADCASTSD f+0(FP), Y0
	MOVQ x+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   scaletail

scaleloop:
	VMULPD (DI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, DI
	DECQ DX
	JNZ  scaleloop

scaletail:
	ANDQ $3, CX
	JZ   scaledone

scalestail:
	VMOVSD (DI), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, DI
	DECQ CX
	JNZ  scalestail

scaledone:
	VZEROUPPER
	RET
