//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 base64 encoder of Muła & Lemire, "Faster Base64 Encoding and
// Decoding Using AVX2 Instructions" (ACM TWEB 2018). Every constant is
// broadcast from read-only data with a VEX instruction: a legacy-SSE
// move between the VEX.256 instructions below stalls the loop on some
// CPUs.

// Each 3-byte group (a, b, c) of a 12-byte lane becomes the 32-bit word
// (b, a, c, b), so one 16-bit multiply per half moves each 6-bit field
// into its own byte.
DATA b64shuf<>+0(SB)/8, $0x0405030401020001
DATA b64shuf<>+8(SB)/8, $0x0a0b090a07080607
GLOBL b64shuf<>(SB), RODATA|NOPTR, $16

// The first and third fields, and their VPMULHUW multipliers.
DATA b64maskAC<>+0(SB)/4, $0x0fc0fc00
GLOBL b64maskAC<>(SB), RODATA|NOPTR, $4
DATA b64mulAC<>+0(SB)/4, $0x04000040
GLOBL b64mulAC<>(SB), RODATA|NOPTR, $4

// The second and fourth fields, and their VPMULLW multipliers.
DATA b64maskBD<>+0(SB)/4, $0x003f03f0
GLOBL b64maskBD<>(SB), RODATA|NOPTR, $4
DATA b64mulBD<>+0(SB)/4, $0x01000010
GLOBL b64mulBD<>(SB), RODATA|NOPTR, $4

// 51 and 26 split the 6-bit values into the alphabet's five ranges; 13
// is the offset-table slot of 'A'..'Z'.
DATA b64c51<>+0(SB)/4, $0x33333333
GLOBL b64c51<>(SB), RODATA|NOPTR, $4
DATA b64c26<>+0(SB)/4, $0x1a1a1a1a
GLOBL b64c26<>(SB), RODATA|NOPTR, $4
DATA b64c13<>+0(SB)/4, $0x0d0d0d0d
GLOBL b64c13<>(SB), RODATA|NOPTR, $4

// What each range adds to a 6-bit value: slot 0 'a'-26, slots 1-10
// '0'-52, slot 11 '+'-62, slot 12 '/'-63, slot 13 'A'.
DATA b64offsets<>+0(SB)/8, $0xfcfcfcfcfcfcfc47
DATA b64offsets<>+8(SB)/8, $0x000041f0edfcfcfc
GLOBL b64offsets<>(SB), RODATA|NOPTR, $16

// func encodeBlocksAVX2(dst, src *byte, n int)
TEXT ·encodeBlocksAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JZ   done

	VBROADCASTI128 b64shuf<>(SB), Y8
	VPBROADCASTD   b64maskAC<>(SB), Y9
	VPBROADCASTD   b64mulAC<>(SB), Y10
	VPBROADCASTD   b64maskBD<>(SB), Y11
	VPBROADCASTD   b64mulBD<>(SB), Y12
	VPBROADCASTD   b64c51<>(SB), Y13
	VPBROADCASTD   b64c26<>(SB), Y14
	VPBROADCASTD   b64c13<>(SB), Y15
	VBROADCASTI128 b64offsets<>(SB), Y7

loop:
	// Lane 0 holds src[0:16], lane 1 src[12:28]; each lane encodes
	// its first 12 bytes.
	VMOVDQU     (SI), X0
	VINSERTI128 $1, 12(SI), Y0, Y0
	VPSHUFB     Y8, Y0, Y0

	// Unpack the four 6-bit fields of each word into its four bytes.
	VPAND    Y9, Y0, Y1
	VPMULHUW Y10, Y1, Y1
	VPAND    Y11, Y0, Y2
	VPMULLW  Y12, Y2, Y2
	VPOR     Y1, Y2, Y0

	// Map each value to its range's offset-table slot, then add the
	// offset.
	VPSUBUSB Y13, Y0, Y1
	VPCMPGTB Y0, Y14, Y2
	VPAND    Y15, Y2, Y2
	VPOR     Y2, Y1, Y1
	VPSHUFB  Y1, Y7, Y1
	VPADDB   Y0, Y1, Y1

	VMOVDQU Y1, (DI)
	ADDQ    $24, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
