#include "textflag.h"

// The constants of math.archLog (math/log_amd64.s), written as the same
// decimal literals so the assembler rounds them to the same bits, each
// repeated in both lanes of a 16-byte slot. The 256-byte table is 32-byte
// aligned by the linker, so every slot is a valid aligned SSE2 operand.
#define CONST(off, v) DATA logConsts<>+off(SB)/8, v; DATA logConsts<>+(off+8)(SB)/8, v

CONST(0, $0x000FFFFFFFFFFFFF)       // mantissa mask
CONST(16, $0.5)                     // 0x3FE0000000000000
CONST(32, $7.07106781186547524401e-01) // HSqrt2
CONST(48, $1.0)
CONST(64, $2.0)
CONST(80, $6.666666666666735130e-01)   // L1
CONST(96, $3.999999999940941908e-01)   // L2
CONST(112, $2.857142874366239149e-01)  // L3
CONST(128, $2.222219843214978396e-01)  // L4
CONST(144, $1.818357216161805012e-01)  // L5
CONST(160, $1.531383769920937332e-01)  // L6
CONST(176, $1.479819860511658591e-01)  // L7
CONST(192, $6.93147180369123816490e-01) // Ln2Hi
CONST(208, $1.90821492927058770002e-10) // Ln2Lo
CONST(224, $0x000003FE000003FE)     // exponent bias 0x3FE in dwords 0 and 1
GLOBL logConsts<>(SB), RODATA|NOPTR, $256

#define MANT  logConsts<>+0(SB)
#define HALF  logConsts<>+16(SB)
#define HSQRT2 logConsts<>+32(SB)
#define ONE   logConsts<>+48(SB)
#define TWO   logConsts<>+64(SB)
#define L1    logConsts<>+80(SB)
#define L2    logConsts<>+96(SB)
#define L3    logConsts<>+112(SB)
#define L4    logConsts<>+128(SB)
#define L5    logConsts<>+144(SB)
#define L6    logConsts<>+160(SB)
#define L7    logConsts<>+176(SB)
#define LN2HI logConsts<>+192(SB)
#define LN2LO logConsts<>+208(SB)
#define BIAS  logConsts<>+224(SB)

// func logPairs(x []float64) int
//
// The body of the loop is math.archLog with every scalar SSE2 operation
// replaced by its packed twin, in the same order and with the same
// destination and source registers (multiplications and additions pair the
// same two values, subtractions take them in the same order), so each lane
// rounds exactly as archLog rounds. Only the special-case tests differ:
// instead of branching per element, the loop stops at the first pair with
// an element that is not a positive normal float and leaves that element
// to math.Log.
TEXT ·logPairs(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	XORQ DI, DI
	MOVQ $0x0010000000000000, R8 // smallest positive normal
	MOVQ $0x7FE0000000000000, R9 // +Inf - smallest positive normal

loop:
	LEAQ 2(DI), DX
	CMPQ DX, CX
	JGT  done
	// Positive normal x: bits - 0x0010000000000000 < 0x7FE0000000000000
	// unsigned. Zero, subnormals, negatives, infinities and NaNs fail it.
	MOVQ (SI)(DI*8), AX
	SUBQ R8, AX
	CMPQ AX, R9
	JCC  done
	MOVQ 8(SI)(DI*8), AX
	SUBQ R8, AX
	CMPQ AX, R9
	JCC  done

	// f1, ki := math.Frexp(x); k := float64(ki)
	MOVUPD   (SI)(DI*8), X2
	MOVAPD   X2, X1
	PSRLQ    $52, X1         // biased exponent (the sign bit is 0)
	PSHUFD   $0x08, X1, X1   // both exponents into the low two dwords
	PSUBL    BIAS, X1
	CVTPL2PD X1, X1          // x1= k
	ANDPD    MANT, X2
	ORPD     HALF, X2        // x2= f1
	// if f1 < math.Sqrt2/2 { k -= 1; f1 *= 2 }
	MOVAPD   HSQRT2, X0
	CMPPD    X2, X0, $5      // cmpnlt; x0= 0 or ^0
	MOVAPD   ONE, X3
	ANDPD    X0, X3          // x3= 0 or 1
	SUBPD    X3, X1
	MOVAPD   ONE, X0
	ADDPD    X0, X3          // x3= 1 or 2
	MULPD    X3, X2
	// f := f1 - 1
	SUBPD    X0, X2          // x1= k, x2= f
	// s := f / (2 + f)
	MOVAPD   TWO, X0
	ADDPD    X2, X0
	MOVAPD   X2, X3
	DIVPD    X0, X3          // x3= s
	// s2 := s * s
	MOVAPD   X3, X4
	MULPD    X4, X4          // x4= s2
	// s4 := s2 * s2
	MOVAPD   X4, X5
	MULPD    X5, X5          // x5= s4
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	MOVAPD   L7, X6
	MULPD    X5, X6
	ADDPD    L5, X6
	MULPD    X5, X6
	ADDPD    L3, X6
	MULPD    X5, X6
	ADDPD    L1, X6
	MULPD    X6, X4          // x4= t1
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	MOVAPD   L6, X6
	MULPD    X5, X6
	ADDPD    L4, X6
	MULPD    X5, X6
	ADDPD    L2, X6
	MULPD    X6, X5          // x5= t2
	// R := t1 + t2
	ADDPD    X5, X4          // x4= R
	// hfsq := 0.5 * f * f
	MOVAPD   HALF, X0
	MULPD    X2, X0
	MULPD    X2, X0          // x0= hfsq
	// return k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	ADDPD    X0, X4          // x4= hfsq+R
	MULPD    X4, X3          // x3= s*(hfsq+R)
	MOVAPD   LN2LO, X4
	MULPD    X1, X4          // x4= k*Ln2Lo
	ADDPD    X4, X3          // x3= s*(hfsq+R)+k*Ln2Lo
	SUBPD    X3, X0          // x0= hfsq-(s*(hfsq+R)+k*Ln2Lo)
	SUBPD    X2, X0          // x0= (hfsq-(s*(hfsq+R)+k*Ln2Lo))-f
	MULPD    LN2HI, X1       // x1= k*Ln2Hi
	SUBPD    X0, X1          // x1= k*Ln2Hi-((hfsq-(s*(hfsq+R)+k*Ln2Lo))-f)
	MOVUPD   X1, (SI)(DI*8)
	MOVQ     DX, DI
	JMP      loop

done:
	MOVQ DI, ret+24(FP)
	RET
