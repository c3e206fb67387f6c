// SHA-1 compression of one 64-byte block with the Intel SHA extensions.
//
// The round sequence is the one Intel published with the extensions
// (S. Gulley et al., "New Instructions Supporting the Secure Hash Algorithm
// on Intel Architecture Processors", July 2013): SHA1RNDS4 runs four rounds
// on ABCD, SHA1NEXTE derives the next E from the saved ABCD and adds it to
// the next four message words, and SHA1MSG1, PXOR and SHA1MSG2 expand the
// message schedule four words at a time. ABCD lives in one register with A
// in the highest lane, E in the highest lane of another.

#include "textflag.h"

#define ABCD X0
#define E0 X1
#define E1 X2
#define MSG0 X3
#define MSG1 X4
#define MSG2 X5
#define MSG3 X6
#define SHUF X7
#define E0SAVE X8
#define ABCDSAVE X9

// func block1(h *[5]uint32, p *[64]byte)
TEXT ·block1(SB), NOSPLIT, $0-16
	MOVQ h+0(FP), DI
	MOVQ p+8(FP), SI

	MOVOU  (DI), ABCD
	PSHUFD $0x1b, ABCD, ABCD
	PXOR   E0, E0
	PINSRD $3, 16(DI), E0
	MOVOU  flip1<>+0(SB), SHUF

	MOVO E0, E0SAVE
	MOVO ABCD, ABCDSAVE

	// rounds 0-3
	MOVOU     (SI), MSG0
	PSHUFB    SHUF, MSG0
	PADDD     MSG0, E0
	MOVO      ABCD, E1
	SHA1RNDS4 $0, E0, ABCD

	// rounds 4-7
	MOVOU     16(SI), MSG1
	PSHUFB    SHUF, MSG1
	SHA1NEXTE MSG1, E1
	MOVO      ABCD, E0
	SHA1RNDS4 $0, E1, ABCD
	SHA1MSG1  MSG1, MSG0

	// rounds 8-11
	MOVOU     32(SI), MSG2
	PSHUFB    SHUF, MSG2
	SHA1NEXTE MSG2, E0
	MOVO      ABCD, E1
	SHA1RNDS4 $0, E0, ABCD
	SHA1MSG1  MSG2, MSG1
	PXOR      MSG2, MSG0

	// rounds 12-15
	MOVOU     48(SI), MSG3
	PSHUFB    SHUF, MSG3
	SHA1NEXTE MSG3, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG3, MSG0
	SHA1RNDS4 $0, E1, ABCD
	SHA1MSG1  MSG3, MSG2
	PXOR      MSG3, MSG1

	// rounds 16-19
	SHA1NEXTE MSG0, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG0, MSG1
	SHA1RNDS4 $0, E0, ABCD
	SHA1MSG1  MSG0, MSG3
	PXOR      MSG0, MSG2

	// rounds 20-23
	SHA1NEXTE MSG1, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG1, MSG2
	SHA1RNDS4 $1, E1, ABCD
	SHA1MSG1  MSG1, MSG0
	PXOR      MSG1, MSG3

	// rounds 24-27
	SHA1NEXTE MSG2, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG2, MSG3
	SHA1RNDS4 $1, E0, ABCD
	SHA1MSG1  MSG2, MSG1
	PXOR      MSG2, MSG0

	// rounds 28-31
	SHA1NEXTE MSG3, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG3, MSG0
	SHA1RNDS4 $1, E1, ABCD
	SHA1MSG1  MSG3, MSG2
	PXOR      MSG3, MSG1

	// rounds 32-35
	SHA1NEXTE MSG0, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG0, MSG1
	SHA1RNDS4 $1, E0, ABCD
	SHA1MSG1  MSG0, MSG3
	PXOR      MSG0, MSG2

	// rounds 36-39
	SHA1NEXTE MSG1, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG1, MSG2
	SHA1RNDS4 $1, E1, ABCD
	SHA1MSG1  MSG1, MSG0
	PXOR      MSG1, MSG3

	// rounds 40-43
	SHA1NEXTE MSG2, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG2, MSG3
	SHA1RNDS4 $2, E0, ABCD
	SHA1MSG1  MSG2, MSG1
	PXOR      MSG2, MSG0

	// rounds 44-47
	SHA1NEXTE MSG3, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG3, MSG0
	SHA1RNDS4 $2, E1, ABCD
	SHA1MSG1  MSG3, MSG2
	PXOR      MSG3, MSG1

	// rounds 48-51
	SHA1NEXTE MSG0, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG0, MSG1
	SHA1RNDS4 $2, E0, ABCD
	SHA1MSG1  MSG0, MSG3
	PXOR      MSG0, MSG2

	// rounds 52-55
	SHA1NEXTE MSG1, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG1, MSG2
	SHA1RNDS4 $2, E1, ABCD
	SHA1MSG1  MSG1, MSG0
	PXOR      MSG1, MSG3

	// rounds 56-59
	SHA1NEXTE MSG2, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG2, MSG3
	SHA1RNDS4 $2, E0, ABCD
	SHA1MSG1  MSG2, MSG1
	PXOR      MSG2, MSG0

	// rounds 60-63
	SHA1NEXTE MSG3, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG3, MSG0
	SHA1RNDS4 $3, E1, ABCD
	SHA1MSG1  MSG3, MSG2
	PXOR      MSG3, MSG1

	// rounds 64-67
	SHA1NEXTE MSG0, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG0, MSG1
	SHA1RNDS4 $3, E0, ABCD
	SHA1MSG1  MSG0, MSG3
	PXOR      MSG0, MSG2

	// rounds 68-71
	SHA1NEXTE MSG1, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG1, MSG2
	SHA1RNDS4 $3, E1, ABCD
	PXOR      MSG1, MSG3

	// rounds 72-75
	SHA1NEXTE MSG2, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG2, MSG3
	SHA1RNDS4 $3, E0, ABCD

	// rounds 76-79
	SHA1NEXTE MSG3, E1
	MOVO      ABCD, E0
	SHA1RNDS4 $3, E1, ABCD

	// add the saved state: E through one more SHA1NEXTE, ABCD directly
	SHA1NEXTE E0SAVE, E0
	PADDD     ABCDSAVE, ABCD

	PSHUFD $0x1b, ABCD, ABCD
	MOVOU  ABCD, (DI)
	PEXTRD $3, E0, 16(DI)
	RET

// ROUNDS4 runs four rounds from the schedule row at off: SHA1NEXTE adds the
// E that ABCD in ein implies to the row, ABCD is saved in eout for the next
// group, and SHA1RNDS4 applies round function f.
#define ROUNDS4(off, f, ein, eout) \
	MOVOU     off(SI), MSG0; \
	SHA1NEXTE MSG0, ein; \
	MOVO      ABCD, eout; \
	SHA1RNDS4 $f, ein, ABCD

// func rounds1(h *[5]uint32, w *[80]uint32)
//
// rounds1 is block1 over a block whose message schedule W[0..79] is already
// expanded, each row of four words in the lanes SHA1NEXTE consumes (first
// word highest): the rounds alone, with no SHA1MSG1/2 and no byte shuffle.
TEXT ·rounds1(SB), NOSPLIT, $0-16
	MOVQ h+0(FP), DI
	MOVQ w+8(FP), SI

	MOVOU  (DI), ABCD
	PSHUFD $0x1b, ABCD, ABCD
	PXOR   E0, E0
	PINSRD $3, 16(DI), E0

	MOVO E0, E0SAVE
	MOVO ABCD, ABCDSAVE

	// rounds 0-3 add E to the first row directly
	MOVOU     (SI), MSG0
	PADDD     MSG0, E0
	MOVO      ABCD, E1
	SHA1RNDS4 $0, E0, ABCD

	ROUNDS4(16, 0, E1, E0)
	ROUNDS4(32, 0, E0, E1)
	ROUNDS4(48, 0, E1, E0)
	ROUNDS4(64, 0, E0, E1)
	ROUNDS4(80, 1, E1, E0)
	ROUNDS4(96, 1, E0, E1)
	ROUNDS4(112, 1, E1, E0)
	ROUNDS4(128, 1, E0, E1)
	ROUNDS4(144, 1, E1, E0)
	ROUNDS4(160, 2, E0, E1)
	ROUNDS4(176, 2, E1, E0)
	ROUNDS4(192, 2, E0, E1)
	ROUNDS4(208, 2, E1, E0)
	ROUNDS4(224, 2, E0, E1)
	ROUNDS4(240, 3, E1, E0)
	ROUNDS4(256, 3, E0, E1)
	ROUNDS4(272, 3, E1, E0)
	ROUNDS4(288, 3, E0, E1)
	ROUNDS4(304, 3, E1, E0)

	SHA1NEXTE E0SAVE, E0
	PADDD     ABCDSAVE, ABCD

	PSHUFD $0x1b, ABCD, ABCD
	MOVOU  ABCD, (DI)
	PEXTRD $3, E0, 16(DI)
	RET

// flip1 reverses all 16 bytes of a message row: big-endian words, with the
// first word in the highest lane to match the ABCD layout.
DATA flip1<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flip1<>+8(SB)/8, $0x0001020304050607
GLOBL flip1<>(SB), RODATA|NOPTR, $16
