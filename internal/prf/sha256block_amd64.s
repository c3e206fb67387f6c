// Copyright 2024 The Go Authors. All rights reserved.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

// SHA-256 compression of one 64-byte block with the Intel SHA extensions
// (SHA256RNDS2, SHA256MSG1, SHA256MSG2), adapted from blockSHANI in the Go
// distribution's crypto/internal/fips140/sha256/sha256block_amd64.s
// (go1.24). That routine follows S. Gulley et al., "New Instructions
// Supporting the Secure Hash Algorithm on Intel Architecture Processors",
// July 2013.
//
// Changes from the original: one block per call, so the block loop and its
// length checks are gone; SSE moves (MOVOU, MOVO) replace the VEX-encoded
// VMOVDQU and VMOVDQA, so the routine needs SHA, SSSE3 and SSE4.1 but not
// AVX; and the round constants sit in their own table at a 16-byte stride
// instead of the AVX2 table's 32-byte one.

#include "textflag.h"

// func block256(h *[8]uint32, p *[64]byte)
TEXT ·block256(SB), NOSPLIT, $0-16
	MOVQ h+0(FP), DI
	MOVQ p+8(FP), SI

	// load initial hash values and reorder: DCBA, HGFE -> ABEF, CDGH
	MOVOU   (DI), X1
	MOVOU   16(DI), X2
	PSHUFD  $0xb1, X1, X1 // CDAB
	PSHUFD  $0x1b, X2, X2 // EFGH
	MOVO    X1, X7
	PALIGNR $0x08, X2, X1 // ABEF
	PBLENDW $0xf0, X7, X2 // CDGH
	MOVOU   flip256<>+0(SB), X8
	LEAQ    k256<>+0(SB), AX

	// save hash values for addition after rounds
	MOVO X1, X9
	MOVO X2, X10

	// do rounds 0-59
	MOVOU       (SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X3
	PADDD       (AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	MOVOU       16(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X4
	PADDD       16(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVOU       32(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X5
	PADDD       32(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVOU       48(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X6
	PADDD       48(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       64(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       80(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       96(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       112(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       128(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       144(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       160(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       176(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       192(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       208(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	MOVO        X5, X0
	PADDD       224(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// do rounds 60-63
	MOVO        X6, X0
	PADDD       240(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// add current hash values with previously saved
	PADDD X9, X1
	PADDD X10, X2

	// write hash values back in the correct order
	PSHUFD  $0x1b, X1, X1
	PSHUFD  $0xb1, X2, X2
	MOVO    X1, X7
	PBLENDW $0xf0, X2, X1
	PALIGNR $0x08, X7, X2
	MOVOU   X1, (DI)
	MOVOU   X2, 16(DI)
	RET

// ROUNDS4 runs rounds i..i+3 from the schedule row at off: W[i..i+3] plus
// their round constants, two rounds per SHA256RNDS2.
#define ROUNDS4(off) \
	MOVOU       off(SI), X0; \
	PADDD       off(AX), X0; \
	SHA256RNDS2 X0, X1, X2; \
	PSHUFD      $0x0e, X0, X0; \
	SHA256RNDS2 X0, X2, X1

// func rounds256(h *[8]uint32, w *[64]uint32)
//
// rounds256 is block256 over a block whose message schedule W[0..63] is
// already expanded: the rounds alone, with no SHA256MSG1/2 and no byte
// shuffle of the message.
TEXT ·rounds256(SB), NOSPLIT, $0-16
	MOVQ h+0(FP), DI
	MOVQ w+8(FP), SI

	MOVOU   (DI), X1
	MOVOU   16(DI), X2
	PSHUFD  $0xb1, X1, X1 // CDAB
	PSHUFD  $0x1b, X2, X2 // EFGH
	MOVO    X1, X7
	PALIGNR $0x08, X2, X1 // ABEF
	PBLENDW $0xf0, X7, X2 // CDGH
	LEAQ    k256<>+0(SB), AX

	MOVO X1, X9
	MOVO X2, X10

	ROUNDS4(0)
	ROUNDS4(16)
	ROUNDS4(32)
	ROUNDS4(48)
	ROUNDS4(64)
	ROUNDS4(80)
	ROUNDS4(96)
	ROUNDS4(112)
	ROUNDS4(128)
	ROUNDS4(144)
	ROUNDS4(160)
	ROUNDS4(176)
	ROUNDS4(192)
	ROUNDS4(208)
	ROUNDS4(224)
	ROUNDS4(240)

	PADDD X9, X1
	PADDD X10, X2

	PSHUFD  $0x1b, X1, X1
	PSHUFD  $0xb1, X2, X2
	MOVO    X1, X7
	PBLENDW $0xf0, X2, X1
	PALIGNR $0x08, X7, X2
	MOVOU   X1, (DI)
	MOVOU   X2, 16(DI)
	RET

// flip256 byte-swaps each 32-bit word of a message row to big-endian order.
DATA flip256<>+0(SB)/8, $0x0405060700010203
DATA flip256<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flip256<>(SB), RODATA|NOPTR, $16

// k256 holds the 64 SHA-256 round constants, four per 16-byte row.
DATA k256<>+0(SB)/4, $0x428a2f98
DATA k256<>+4(SB)/4, $0x71374491
DATA k256<>+8(SB)/4, $0xb5c0fbcf
DATA k256<>+12(SB)/4, $0xe9b5dba5
DATA k256<>+16(SB)/4, $0x3956c25b
DATA k256<>+20(SB)/4, $0x59f111f1
DATA k256<>+24(SB)/4, $0x923f82a4
DATA k256<>+28(SB)/4, $0xab1c5ed5
DATA k256<>+32(SB)/4, $0xd807aa98
DATA k256<>+36(SB)/4, $0x12835b01
DATA k256<>+40(SB)/4, $0x243185be
DATA k256<>+44(SB)/4, $0x550c7dc3
DATA k256<>+48(SB)/4, $0x72be5d74
DATA k256<>+52(SB)/4, $0x80deb1fe
DATA k256<>+56(SB)/4, $0x9bdc06a7
DATA k256<>+60(SB)/4, $0xc19bf174
DATA k256<>+64(SB)/4, $0xe49b69c1
DATA k256<>+68(SB)/4, $0xefbe4786
DATA k256<>+72(SB)/4, $0x0fc19dc6
DATA k256<>+76(SB)/4, $0x240ca1cc
DATA k256<>+80(SB)/4, $0x2de92c6f
DATA k256<>+84(SB)/4, $0x4a7484aa
DATA k256<>+88(SB)/4, $0x5cb0a9dc
DATA k256<>+92(SB)/4, $0x76f988da
DATA k256<>+96(SB)/4, $0x983e5152
DATA k256<>+100(SB)/4, $0xa831c66d
DATA k256<>+104(SB)/4, $0xb00327c8
DATA k256<>+108(SB)/4, $0xbf597fc7
DATA k256<>+112(SB)/4, $0xc6e00bf3
DATA k256<>+116(SB)/4, $0xd5a79147
DATA k256<>+120(SB)/4, $0x06ca6351
DATA k256<>+124(SB)/4, $0x14292967
DATA k256<>+128(SB)/4, $0x27b70a85
DATA k256<>+132(SB)/4, $0x2e1b2138
DATA k256<>+136(SB)/4, $0x4d2c6dfc
DATA k256<>+140(SB)/4, $0x53380d13
DATA k256<>+144(SB)/4, $0x650a7354
DATA k256<>+148(SB)/4, $0x766a0abb
DATA k256<>+152(SB)/4, $0x81c2c92e
DATA k256<>+156(SB)/4, $0x92722c85
DATA k256<>+160(SB)/4, $0xa2bfe8a1
DATA k256<>+164(SB)/4, $0xa81a664b
DATA k256<>+168(SB)/4, $0xc24b8b70
DATA k256<>+172(SB)/4, $0xc76c51a3
DATA k256<>+176(SB)/4, $0xd192e819
DATA k256<>+180(SB)/4, $0xd6990624
DATA k256<>+184(SB)/4, $0xf40e3585
DATA k256<>+188(SB)/4, $0x106aa070
DATA k256<>+192(SB)/4, $0x19a4c116
DATA k256<>+196(SB)/4, $0x1e376c08
DATA k256<>+200(SB)/4, $0x2748774c
DATA k256<>+204(SB)/4, $0x34b0bcb5
DATA k256<>+208(SB)/4, $0x391c0cb3
DATA k256<>+212(SB)/4, $0x4ed8aa4a
DATA k256<>+216(SB)/4, $0x5b9cca4f
DATA k256<>+220(SB)/4, $0x682e6ff3
DATA k256<>+224(SB)/4, $0x748f82ee
DATA k256<>+228(SB)/4, $0x78a5636f
DATA k256<>+232(SB)/4, $0x84c87814
DATA k256<>+236(SB)/4, $0x8cc70208
DATA k256<>+240(SB)/4, $0x90befffa
DATA k256<>+244(SB)/4, $0xa4506ceb
DATA k256<>+248(SB)/4, $0xbef9a3f7
DATA k256<>+252(SB)/4, $0xc67178f2
GLOBL k256<>(SB), RODATA|NOPTR, $256
