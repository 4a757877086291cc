#include "textflag.h"

// The constants of math.archExp (math/exp_amd64.s), written as the same
// decimal literals so the assembler rounds them to the same bits, each
// repeated in all four lanes of a 32-byte slot.
#define CONST(off, v) DATA expConsts<>+off(SB)/8, v; DATA expConsts<>+(off+8)(SB)/8, v; DATA expConsts<>+(off+16)(SB)/8, v; DATA expConsts<>+(off+24)(SB)/8, v

CONST(0, $0.5)
CONST(32, $1.0)
CONST(64, $2.0)
CONST(96, $1.6666666666666666667e-1)
CONST(128, $4.1666666666666666667e-2)
CONST(160, $8.3333333333333333333e-3)
CONST(192, $1.3888888888888888889e-3)
CONST(224, $1.9841269841269841270e-4)
CONST(256, $2.4801587301587301587e-5)
CONST(288, $1.4426950408889634073599246810018920)        // LOG2E
CONST(320, $0.69314718055966295651160180568695068359375) // LN2U
CONST(352, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
CONST(384, $0.0625)
CONST(416, $700.0)                  // the kernel's domain bound on |x|
CONST(448, $0x7FFFFFFFFFFFFFFF)     // sign mask
CONST(480, $0x000003FF000003FF)     // exponent bias 0x3FF in every dword
GLOBL expConsts<>(SB), RODATA|NOPTR, $512

#define HALF  expConsts<>+0(SB)
#define ONE   expConsts<>+32(SB)
#define TWO   expConsts<>+64(SB)
#define C3    expConsts<>+96(SB)
#define C4    expConsts<>+128(SB)
#define C5    expConsts<>+160(SB)
#define C6    expConsts<>+192(SB)
#define C7    expConsts<>+224(SB)
#define C8    expConsts<>+256(SB)
#define LOG2E expConsts<>+288(SB)
#define LN2U  expConsts<>+320(SB)
#define LN2L  expConsts<>+352(SB)
#define SIXTEENTH expConsts<>+384(SB)
#define LIMIT expConsts<>+416(SB)
#define ABS   expConsts<>+448(SB)
#define BIAS  expConsts<>+480(SB)

// func expQuads(x []float64) int
//
// The FMA path of math.archExp (label avxfma) four lanes at a time, as
// VEX-encoded AVX2 and FMA3 packed operations in the same order, with the
// same fused steps and the same operand roles. Conversions round to
// nearest, as CVTSD2SL does under Go's MXCSR. For |x| < 700 the exponent k
// lies in [-1010, 1010], so archExp's overflow and denormal branches never
// run and its ldexp is the one multiplication by 2^k. The loop stops at the
// first quad holding an element outside that domain (NaNs included), or
// when fewer than four elements remain. The results are archExp's only
// where math.Exp takes the FMA path; the package probe checks that before
// it enables this kernel.
TEXT ·expQuads(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	XORQ DI, DI

loop:
	LEAQ 4(DI), DX
	CMPQ DX, CX
	JGT  done
	VMOVUPD   (SI)(DI*8), Y0
	VANDPD    ABS, Y0, Y1
	VCMPPD    $1, LIMIT, Y1, Y1 // |x| < 700, ordered: false for NaN
	VMOVMSKPD Y1, AX
	CMPQ      AX, $15
	JNE       done

	VMULPD       LOG2E, Y0, Y1
	VCVTPD2DQY   Y1, X1          // x1= k, int32 lanes
	VCVTDQ2PD    X1, Y2          // y2= float64(k)
	VFNMADD231PD LN2U, Y2, Y0    // y0= x - k*LN2U, fused
	VFNMADD231PD LN2L, Y2, Y0    // y0= y0 - k*LN2L, fused
	// reduce argument
	VMULPD       SIXTEENTH, Y0, Y0
	// Taylor series evaluation
	VMOVUPD      C8, Y3
	VFMADD213PD  C7, Y0, Y3
	VFMADD213PD  C6, Y0, Y3
	VFMADD213PD  C5, Y0, Y3
	VFMADD213PD  C4, Y0, Y3
	VFMADD213PD  C3, Y0, Y3
	VFMADD213PD  HALF, Y0, Y3
	VFMADD213PD  ONE, Y0, Y3
	VMULPD       Y3, Y0, Y0
	VADDPD       TWO, Y0, Y3
	VMULPD       Y3, Y0, Y0
	VADDPD       TWO, Y0, Y3
	VMULPD       Y3, Y0, Y0
	VADDPD       TWO, Y0, Y3
	VMULPD       Y3, Y0, Y0
	VADDPD       TWO, Y0, Y3
	VFMADD213PD  ONE, Y3, Y0
	// return fr * 2**k
	VPADDD       BIAS, X1, X1
	VPMOVZXDQ    X1, Y1
	VPSLLQ       $52, Y1, Y1
	VMULPD       Y1, Y0, Y0
	VMOVUPD      Y0, (SI)(DI*8)
	MOVQ         DX, DI
	JMP          loop

done:
	VZEROUPPER
	MOVQ DI, ret+24(FP)
	RET
