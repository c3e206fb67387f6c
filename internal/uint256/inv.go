package uint256

import (
	"errors"
	"math/bits"
)

// This file is the field inverse: Pornin's optimized binary GCD ("Optimized
// Binary GCD for Modular Inversion", 2020), which runs the binary extended
// Euclidean algorithm's steps in batches of 31 on 64-bit approximations of
// its two operands and applies each batch to the 256-bit values as one 2×2
// update. It works for any odd modulus, pseudo-Mersenne or generic.

// invBatch is the number of divsteps per batch: the factors of a batch stay
// within ±2^31, so the approximations and the updates fit machine words.
const invBatch = 31

// maxInvBatches bounds Inv's batches. The paper bounds the whole run by
// 2·256−1 steps, that is 17 batches; the margin only guards against a
// defect turning into an endless loop.
const maxInvBatches = 2 * (2*256 - 1 + invBatch - 1) / invBatch

var errInvDiverged = errors.New("uint256: inverse did not converge")

// Inv returns x⁻¹ mod p. It returns ErrNotInvertible for x ≡ 0.
//
// It keeps a ≡ u·x and b ≡ v·x (mod p), starting from a = x, u = 1, b = p,
// v = 0, and runs until a = 0, when b = gcd(x, p) = 1 and v = x⁻¹. Each batch
// computes factors f0, g0, f1, g1 on approximations of a and b, then sets
// a, b = (a·f0 + b·g0)/2^31, (a·f1 + b·g1)/2^31 exactly, and u, v alike
// modulo p, where the division by 2^31 is a Montgomery step.
func (f *Field) Inv(x Int) (Int, error) {
	a := f.Reduce(x)
	if a.IsZero() {
		return Int{}, ErrNotInvertible
	}
	b, u, v := f.p, One, Zero
	// pinv = −p⁻¹ mod 2^64, by Newton's iteration from p·p ≡ 1 (mod 8).
	pinv := f.p[0]
	for i := 0; i < 5; i++ {
		pinv *= 2 - f.p[0]*pinv
	}
	pinv = -pinv
	for n := 0; !a.IsZero(); n++ {
		if n == maxInvBatches {
			return Int{}, errInvDiverged
		}
		f0, g0, f1, g1 := divsteps(approx(a, b), approx(b, a))
		na := combine(a, b, f0, g0)
		nb := combine(a, b, f1, g1)
		if na.negative() {
			na.neg()
			f0, g0 = -f0, -g0
		}
		if nb.negative() {
			nb.neg()
			f1, g1 = -f1, -g1
		}
		a, b = na.low(), nb.low()
		u, v = f.montStep(u, v, f0, g0, pinv), f.montStep(u, v, f1, g1, pinv)
	}
	if !isOne(b) {
		return Int{}, errInvDiverged
	}
	return v, nil
}

// approx returns x's low 31 bits joined below its top 33 bits, where the
// top is taken at the bit length of the larger of x and y and at least 64:
// below 2^64 the approximation is x itself.
func approx(x, y Int) uint64 {
	n := max(x.BitLen(), y.BitLen(), 64)
	return x[0]&(1<<invBatch-1) | x.bitsFrom(uint(n-invBatch-2))<<invBatch
}

// bitsFrom returns bits s to s+63 of x, s < 256.
func (x Int) bitsFrom(s uint) uint64 {
	i, r := s/64, s%64
	w := x[i] >> r
	if r != 0 && i < 3 {
		w |= x[i+1] << (64 - r)
	}
	return w
}

// divsteps runs one batch of binary GCD steps on approximations a, b (b odd)
// and returns the factors that map the exact operands onto their values
// after the batch, scaled by 2^31. Each step halves a when it is even, and
// otherwise first swaps a and b when a < b and then sets a = (a−b)/2. The
// steps are branch-free: their parity decisions are unpredictable.
func divsteps(a, b uint64) (f0, g0, f1, g1 int64) {
	f0, g1 = 1, 1
	for i := 0; i < invBatch; i++ {
		odd := -(a & 1)
		_, lt := bits.Sub64(a, b, 0)
		swap := odd & -lt
		t := (a ^ b) & swap
		a, b = a^t, b^t
		s := int64(swap)
		tf, tg := (f0^f1)&s, (g0^g1)&s
		f0, f1, g0, g1 = f0^tf, f1^tf, g0^tg, g1^tg
		a -= b & odd
		f0 -= f1 & int64(odd)
		g0 -= g1 & int64(odd)
		a >>= 1
		f1 <<= 1
		g1 <<= 1
	}
	return f0, g0, f1, g1
}

// combine returns (x·f + y·g)/2^31 for |f|+|g| ≤ 2^31. The caller
// guarantees the division is exact; the result may be negative.
func combine(x, y Int, f, g int64) s320 {
	z := mulSmall(x, f)
	z.add(mulSmall(y, g))
	z.shr31()
	return z
}

// montStep returns (u·f + v·g)·2^−31 mod p for u, v in [0, p) and
// |f|+|g| ≤ 2^31, adding the multiple of p that makes the sum divisible by
// 2^31.
func (f *Field) montStep(u, v Int, fu, fv int64, pinv uint64) Int {
	z := mulSmall(u, fu)
	z.add(mulSmall(v, fv))
	m := int64(z[0] * pinv & (1<<invBatch - 1))
	z.add(mulSmall(f.p, m))
	z.shr31()
	// |u·f + v·g| + m·p < 2^32·p, so z is in (−2p, 2p).
	for z.negative() {
		z.addInt(f.p)
	}
	r := z.low()
	if z[4] != 0 || r.Cmp(f.p) >= 0 {
		r, _ = r.Sub(f.p)
	}
	return r
}

// s320 is a signed 320-bit integer in two's complement, least significant
// limb first: room for a 256-bit value times a 32-bit factor, and a sign.
type s320 [5]uint64

// mulSmall returns x·f as an s320, for |f| < 2^63.
func mulSmall(x Int, f int64) s320 {
	m := uint64(f)
	if f < 0 {
		m = -m
	}
	var z s320
	var c uint64
	for i, xi := range x {
		hi, lo := bits.Mul64(xi, m)
		var cc uint64
		z[i], cc = bits.Add64(lo, c, 0)
		c = hi + cc
	}
	z[4] = c
	if f < 0 {
		z.neg()
	}
	return z
}

func (z *s320) negative() bool { return int64(z[4]) < 0 }

// low returns the low 256 bits of z.
func (z *s320) low() Int { return Int{z[0], z[1], z[2], z[3]} }

func (z *s320) neg() {
	c := uint64(1)
	for i := range z {
		z[i], c = bits.Add64(^z[i], 0, c)
	}
}

func (z *s320) add(y s320) {
	var c uint64
	for i := range z {
		z[i], c = bits.Add64(z[i], y[i], c)
	}
}

func (z *s320) addInt(y Int) {
	var c uint64
	for i, yi := range y {
		z[i], c = bits.Add64(z[i], yi, c)
	}
	z[4] += c
}

// shr31 shifts z right by 31 bits, keeping its sign.
func (z *s320) shr31() {
	for i := 0; i < 4; i++ {
		z[i] = z[i]>>invBatch | z[i+1]<<(64-invBatch)
	}
	z[4] = uint64(int64(z[4]) >> invBatch)
}
