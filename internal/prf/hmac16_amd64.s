#include "textflag.h"
#include "go_asm.h"

// The vector engine's kernel: HM256 and HM1 of one epoch for sixteen keys at
// once, one key per 32-bit lane of a ZMM register, in AVX-512F alone. Every
// lane runs the same four compressions the SHA-NI engine runs per key (inner
// and outer SHA-256, inner and outer SHA-1), from the chaining values in the
// key's pads. Rotations are VPRORD/VPROLD; Σ, σ, Ch, Maj and parity are one
// VPTERNLOGD each.
//
// Every key hashes the same inner block at an epoch, so the inner rounds add
// a broadcast word of InnerBlock.kw256 or kw1, where the round constants are
// already folded into the schedule. The outer block carries each lane's own
// inner digest, so its schedule is expanded per lane into 64-byte rows of
// the frame, W[t] for lane l at row t, word l.
//
// Register use:
//
//	AX   pads base                  Z0–Z7   working state a–h (SHA-1: a–e)
//	BX   inner K+W cursor           Z8–Z11  round temporaries
//	SI   InnerBlock                 Z12     SHA-1 outer round constant, from sha1K
//	DI   out                        Z13–Z14 W[t-2], W[t-1] while expanding
//	R8   outer schedule (aligned)   Z16–Z23 chaining values for the feed-forward
//	R9   loop counter               Z31     gather indices, id·26 words
//	R10  sha256K cursor, R11 W cursor

// GATHER loads pad word off of every lane's key into dst. The gather clears
// its mask, so each one sets a fresh all-ones K1, and zeroing dst first ends
// the merge dependency on its old value.
#define GATHER(off, dst) \
	KXNORW     K0, K0, K1; \
	VPXORD     dst, dst, dst; \
	VPGATHERDD off(AX)(Z31*4), K1, dst

// LOAD8 gathers an 8-word SHA-256 chaining value into Z16–Z23 and a–h.
#define LOAD8(off) \
	GATHER(off+0, Z16); \
	GATHER(off+4, Z17); \
	GATHER(off+8, Z18); \
	GATHER(off+12, Z19); \
	GATHER(off+16, Z20); \
	GATHER(off+20, Z21); \
	GATHER(off+24, Z22); \
	GATHER(off+28, Z23); \
	VMOVDQA32 Z16, Z0; \
	VMOVDQA32 Z17, Z1; \
	VMOVDQA32 Z18, Z2; \
	VMOVDQA32 Z19, Z3; \
	VMOVDQA32 Z20, Z4; \
	VMOVDQA32 Z21, Z5; \
	VMOVDQA32 Z22, Z6; \
	VMOVDQA32 Z23, Z7

// LOAD5 gathers a 5-word SHA-1 chaining value into Z16–Z20 and a–e.
#define LOAD5(off) \
	GATHER(off+0, Z16); \
	GATHER(off+4, Z17); \
	GATHER(off+8, Z18); \
	GATHER(off+12, Z19); \
	GATHER(off+16, Z20); \
	VMOVDQA32 Z16, Z0; \
	VMOVDQA32 Z17, Z1; \
	VMOVDQA32 Z18, Z2; \
	VMOVDQA32 Z19, Z3; \
	VMOVDQA32 Z20, Z4

// SHA256_ROUND is one SHA-256 round (FIPS 180-4 §6.2.2) over h that already
// holds h + K[t] + W[t]: d += T1, h = T1 + T2. The next round takes the
// registers rotated by one, (h, a, b, c, d, e, f, g).
#define SHA256_ROUND(a, b, c, d, e, f, g, h) \
	VPRORD     $6, e, Z8; \
	VPRORD     $11, e, Z9; \
	VPRORD     $25, e, Z10; \
	VPTERNLOGD $0x96, Z10, Z9, Z8; \
	VPADDD     Z8, h, h; \
	VMOVDQA32  e, Z8; \
	VPTERNLOGD $0xca, g, f, Z8; \
	VPADDD     Z8, h, h; \
	VPADDD     h, d, d; \
	VPRORD     $2, a, Z8; \
	VPRORD     $13, a, Z9; \
	VPRORD     $22, a, Z10; \
	VPTERNLOGD $0x96, Z10, Z9, Z8; \
	VPADDD     Z8, h, h; \
	VMOVDQA32  a, Z8; \
	VPTERNLOGD $0xe8, c, b, Z8; \
	VPADDD     Z8, h, h

// IN256 is inner round i of an 8-round group: K+W is one broadcast word.
#define IN256(i, a, b, c, d, e, f, g, h) \
	VPADDD.BCST (i*4)(BX), h, h; \
	SHA256_ROUND(a, b, c, d, e, f, g, h)

// OUT256 is outer round i of an 8-round group: a broadcast K and the lane's
// own W.
#define OUT256(i, a, b, c, d, e, f, g, h) \
	VPADDD.BCST (i*4)(R10), h, h; \
	VPADDD      (i*64)(R11), h, h; \
	SHA256_ROUND(a, b, c, d, e, f, g, h)

#define ROUNDS8(R) \
	R(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7); \
	R(1, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6); \
	R(2, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5); \
	R(3, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4); \
	R(4, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3); \
	R(5, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2); \
	R(6, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1); \
	R(7, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0)

// SCHED256 writes W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16] to the
// row off bytes past W[t-16] at R11. x holds W[t-2] and is left holding W[t].
#define SCHED256(off, x) \
	VPRORD     $17, x, Z9; \
	VPRORD     $19, x, Z10; \
	VPSRLD     $10, x, x; \
	VPTERNLOGD $0x96, Z10, Z9, x; \
	VPADDD     (off+9*64)(R11), x, x; \
	VPADDD     (off)(R11), x, x; \
	VMOVDQU32  (off+64)(R11), Z11; \
	VPRORD     $7, Z11, Z9; \
	VPRORD     $18, Z11, Z10; \
	VPSRLD     $3, Z11, Z11; \
	VPTERNLOGD $0x96, Z10, Z9, Z11; \
	VPADDD     Z11, x, x; \
	VMOVDQU32  x, (off+16*64)(R11)

// SHA1_ROUND is one SHA-1 round (§6.1.2) over e that already holds
// e + K[t] + W[t]: e += ROTL5(a) + f(b, c, d) and b = ROTL30(b), f being the
// VPTERNLOGD table of Ch, parity or Maj. The next round takes the registers
// rotated by one, (e, a, b, c, d).
#define SHA1_ROUND(f, a, b, c, d, e) \
	VPROLD     $5, a, Z8; \
	VPADDD     Z8, e, e; \
	VMOVDQA32  b, Z9; \
	VPTERNLOGD f, d, c, Z9; \
	VPADDD     Z9, e, e; \
	VPROLD     $30, b, b

#define IN1(f, i, a, b, c, d, e) \
	VPADDD.BCST (i*4)(BX), e, e; \
	SHA1_ROUND(f, a, b, c, d, e)

#define OUT1(f, i, a, b, c, d, e) \
	VPADDD Z12, e, e; \
	VPADDD (i*64)(R11), e, e; \
	SHA1_ROUND(f, a, b, c, d, e)

#define ROUNDS5(R, f) \
	R(f, 0, Z0, Z1, Z2, Z3, Z4); \
	R(f, 1, Z4, Z0, Z1, Z2, Z3); \
	R(f, 2, Z3, Z4, Z0, Z1, Z2); \
	R(f, 3, Z2, Z3, Z4, Z0, Z1); \
	R(f, 4, Z1, Z2, Z3, Z4, Z0)

// func hmac16(pads *keyPads, blk *InnerBlock, idx *[16]int32, out *[13][16]uint32)
TEXT ·hmac16(SB), 0, $5184-32
	MOVQ      pads+0(FP), AX
	MOVQ      blk+8(FP), SI
	MOVQ      idx+16(FP), DX
	MOVQ      out+24(FP), DI
	VMOVDQU32 (DX), Z31
	LEAQ      63(SP), R8
	ANDQ      $~63, R8

	// Inner SHA-256: the ipad chaining value through the epoch's block.
	LOAD8(keyPads_in256)
	LEAQ InnerBlock_kw256(SI), BX
	MOVQ $8, R9

in256:
	ROUNDS8(IN256)
	ADDQ $32, BX
	DECQ R9
	JNZ  in256
	VPADDD Z16, Z0, Z0
	VPADDD Z17, Z1, Z1
	VPADDD Z18, Z2, Z2
	VPADDD Z19, Z3, Z3
	VPADDD Z20, Z4, Z4
	VPADDD Z21, Z5, Z5
	VPADDD Z22, Z6, Z6
	VPADDD Z23, Z7, Z7

	// Outer SHA-256 block: inner digest ‖ 0x80 ‖ 0… ‖ bitlen(64+32).
	VMOVDQU32    Z0, (0*64)(R8)
	VMOVDQU32    Z1, (1*64)(R8)
	VMOVDQU32    Z2, (2*64)(R8)
	VMOVDQU32    Z3, (3*64)(R8)
	VMOVDQU32    Z4, (4*64)(R8)
	VMOVDQU32    Z5, (5*64)(R8)
	VMOVDQU32    Z6, (6*64)(R8)
	VMOVDQU32    Z7, (7*64)(R8)
	MOVL         $0x80000000, R12
	VPBROADCASTD R12, Z8
	VMOVDQU32    Z8, (8*64)(R8)
	VPXORD       Z13, Z13, Z13
	VMOVDQU32    Z13, (9*64)(R8)
	VMOVDQU32    Z13, (10*64)(R8)
	VMOVDQU32    Z13, (11*64)(R8)
	VMOVDQU32    Z13, (12*64)(R8)
	VMOVDQU32    Z13, (13*64)(R8)
	VMOVDQU32    Z13, (14*64)(R8)
	MOVL         $((64+32)*8), R12
	VPBROADCASTD R12, Z14
	VMOVDQU32    Z14, (15*64)(R8)

	// W[16..63], two rows per pass.
	MOVQ R8, R11
	MOVQ $24, R9

sched256:
	SCHED256(0, Z13)
	SCHED256(64, Z14)
	ADDQ $128, R11
	DECQ R9
	JNZ  sched256

	// Outer SHA-256: the opad chaining value through that block.
	LOAD8(keyPads_out256)
	LEAQ ·sha256K(SB), R10
	MOVQ R8, R11
	MOVQ $8, R9

out256:
	ROUNDS8(OUT256)
	ADDQ $32, R10
	ADDQ $512, R11
	DECQ R9
	JNZ  out256
	VPADDD    Z16, Z0, Z0
	VPADDD    Z17, Z1, Z1
	VPADDD    Z18, Z2, Z2
	VPADDD    Z19, Z3, Z3
	VPADDD    Z20, Z4, Z4
	VPADDD    Z21, Z5, Z5
	VPADDD    Z22, Z6, Z6
	VPADDD    Z23, Z7, Z7
	VMOVDQU32 Z0, (0*64)(DI)
	VMOVDQU32 Z1, (1*64)(DI)
	VMOVDQU32 Z2, (2*64)(DI)
	VMOVDQU32 Z3, (3*64)(DI)
	VMOVDQU32 Z4, (4*64)(DI)
	VMOVDQU32 Z5, (5*64)(DI)
	VMOVDQU32 Z6, (6*64)(DI)
	VMOVDQU32 Z7, (7*64)(DI)

	// Inner SHA-1, twenty rounds per function: Ch, parity, Maj, parity.
	LOAD5(keyPads_in1)
	LEAQ InnerBlock_kw1(SI), BX
	MOVQ $4, R9

in1ch:
	ROUNDS5(IN1, $0xca)
	ADDQ $20, BX
	DECQ R9
	JNZ  in1ch
	MOVQ $4, R9

in1par:
	ROUNDS5(IN1, $0x96)
	ADDQ $20, BX
	DECQ R9
	JNZ  in1par
	MOVQ $4, R9

in1maj:
	ROUNDS5(IN1, $0xe8)
	ADDQ $20, BX
	DECQ R9
	JNZ  in1maj
	MOVQ $4, R9

in1par2:
	ROUNDS5(IN1, $0x96)
	ADDQ $20, BX
	DECQ R9
	JNZ  in1par2
	VPADDD Z16, Z0, Z0
	VPADDD Z17, Z1, Z1
	VPADDD Z18, Z2, Z2
	VPADDD Z19, Z3, Z3
	VPADDD Z20, Z4, Z4

	// Outer SHA-1 block: inner digest ‖ 0x80 ‖ 0… ‖ bitlen(64+20).
	VMOVDQU32    Z0, (0*64)(R8)
	VMOVDQU32    Z1, (1*64)(R8)
	VMOVDQU32    Z2, (2*64)(R8)
	VMOVDQU32    Z3, (3*64)(R8)
	VMOVDQU32    Z4, (4*64)(R8)
	MOVL         $0x80000000, R12
	VPBROADCASTD R12, Z8
	VMOVDQU32    Z8, (5*64)(R8)
	VPXORD       Z9, Z9, Z9
	VMOVDQU32    Z9, (6*64)(R8)
	VMOVDQU32    Z9, (7*64)(R8)
	VMOVDQU32    Z9, (8*64)(R8)
	VMOVDQU32    Z9, (9*64)(R8)
	VMOVDQU32    Z9, (10*64)(R8)
	VMOVDQU32    Z9, (11*64)(R8)
	VMOVDQU32    Z9, (12*64)(R8)
	VMOVDQU32    Z9, (13*64)(R8)
	VMOVDQU32    Z9, (14*64)(R8)
	MOVL         $((64+20)*8), R12
	VPBROADCASTD R12, Z8
	VMOVDQU32    Z8, (15*64)(R8)

	// W[16..79] = ROTL1(W[t-3] ⊕ W[t-8] ⊕ W[t-14] ⊕ W[t-16]).
	MOVQ R8, R11
	MOVQ $64, R9

sched1:
	VMOVDQU32  (13*64)(R11), Z8
	VMOVDQU32  (8*64)(R11), Z9
	VPTERNLOGD $0x96, (2*64)(R11), Z9, Z8
	VPXORD     (R11), Z8, Z8
	VPROLD     $1, Z8, Z8
	VMOVDQU32  Z8, (16*64)(R11)
	ADDQ       $64, R11
	DECQ       R9
	JNZ        sched1

	// Outer SHA-1: the opad chaining value through that block.
	LOAD5(keyPads_out1)
	MOVQ         R8, R11
	VPBROADCASTD ·sha1K+0(SB), Z12
	MOVQ         $4, R9

out1ch:
	ROUNDS5(OUT1, $0xca)
	ADDQ $320, R11
	DECQ R9
	JNZ  out1ch
	VPBROADCASTD ·sha1K+4(SB), Z12
	MOVQ         $4, R9

out1par:
	ROUNDS5(OUT1, $0x96)
	ADDQ $320, R11
	DECQ R9
	JNZ  out1par
	VPBROADCASTD ·sha1K+8(SB), Z12
	MOVQ         $4, R9

out1maj:
	ROUNDS5(OUT1, $0xe8)
	ADDQ $320, R11
	DECQ R9
	JNZ  out1maj
	VPBROADCASTD ·sha1K+12(SB), Z12
	MOVQ         $4, R9

out1par2:
	ROUNDS5(OUT1, $0x96)
	ADDQ $320, R11
	DECQ R9
	JNZ  out1par2
	VPADDD    Z16, Z0, Z0
	VPADDD    Z17, Z1, Z1
	VPADDD    Z18, Z2, Z2
	VPADDD    Z19, Z3, Z3
	VPADDD    Z20, Z4, Z4
	VMOVDQU32 Z0, (8*64)(DI)
	VMOVDQU32 Z1, (9*64)(DI)
	VMOVDQU32 Z2, (10*64)(DI)
	VMOVDQU32 Z3, (11*64)(DI)
	VMOVDQU32 Z4, (12*64)(DI)

	VZEROUPPER
	RET
