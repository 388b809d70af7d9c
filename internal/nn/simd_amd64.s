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

// func dot4asm(w, x0, x1, x2, x3 *float64, n int) (s0, s1, s2, s3 float64)
//
// Four simultaneous dot products of one weight row against four input
// rows: the weight vector is loaded once per 4 elements and feeds four
// independent FMA accumulator chains.
TEXT ·dot4asm(SB), NOSPLIT, $0-80
	MOVQ w+0(FP), SI
	MOVQ x0+8(FP), R8
	MOVQ x1+16(FP), R9
	MOVQ x2+24(FP), R10
	MOVQ x3+32(FP), R11
	MOVQ n+40(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   reduce

vloop:
	VMOVUPD (SI), Y4
	VFMADD231PD (R8), Y4, Y0
	VFMADD231PD (R9), Y4, Y1
	VFMADD231PD (R10), Y4, Y2
	VFMADD231PD (R11), Y4, Y3
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ DX
	JNZ  vloop

reduce:
	VEXTRACTF128 $1, Y0, X5
	VADDPD  X5, X0, X0
	VHADDPD X0, X0, X0
	VEXTRACTF128 $1, Y1, X5
	VADDPD  X5, X1, X1
	VHADDPD X1, X1, X1
	VEXTRACTF128 $1, Y2, X5
	VADDPD  X5, X2, X2
	VHADDPD X2, X2, X2
	VEXTRACTF128 $1, Y3, X5
	VADDPD  X5, X3, X3
	VHADDPD X3, X3, X3
	ANDQ $3, CX
	JZ   done

stail:
	VMOVSD (SI), X4
	VMOVSD (R8), X5
	VFMADD231SD X5, X4, X0
	VMOVSD (R9), X5
	VFMADD231SD X5, X4, X1
	VMOVSD (R10), X5
	VFMADD231SD X5, X4, X2
	VMOVSD (R11), X5
	VFMADD231SD X5, X4, X3
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNZ  stail

done:
	VMOVSD X0, s0+48(FP)
	VMOVSD X1, s1+56(FP)
	VMOVSD X2, s2+64(FP)
	VMOVSD X3, s3+72(FP)
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
