package uint256

import (
	"crypto/rand"
	"errors"
	"math/big"
	"math/bits"
)

// Field performs arithmetic modulo a fixed 256-bit prime p. A Field is
// immutable after construction and safe for concurrent use.
//
// Construction detects pseudo-Mersenne primes p = 2^256 − c (c a single
// limb) and switches reduction to two rounds of folding hi·c into the low
// half, which is the hot path for the default SIES modulus 2^256 − 189. All
// other primes use a generic Knuth Algorithm D division.
type Field struct {
	p     Int
	cLimb uint64 // 2^256 − p when pseudo-Mersenne
	pm    bool   // pseudo-Mersenne fast path enabled
}

// ErrNotPrime is returned by NewField when the modulus fails a primality test.
var ErrNotPrime = errors.New("uint256: modulus is not prime")

// ErrNotInvertible is returned by Inv for the zero element.
var ErrNotInvertible = errors.New("uint256: zero has no multiplicative inverse")

// DefaultPrime returns the default SIES modulus 2^256 − 189, the largest
// pseudo-Mersenne prime below 2^256 with a single-byte c.
func DefaultPrime() Int {
	m := Int{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)} // 2^256 − 1
	p, _ := m.Sub(NewInt(188))                               // 2^256 − 189
	return p
}

// NewField constructs a prime field with modulus p. The primality of p is
// checked probabilistically (64 Miller–Rabin rounds via math/big); composite
// moduli are rejected because decryption requires inverses to exist.
func NewField(p Int) (*Field, error) {
	if p.BitLen() <= 192 {
		// The Knuth-D reduction is specialised to 4-limb divisors; SIES
		// moduli are 256-bit so shorter primes are rejected outright.
		return nil, errors.New("uint256: modulus must exceed 2^192")
	}
	if !p.ToBig().ProbablyPrime(64) {
		return nil, ErrNotPrime
	}
	f := &Field{p: p}
	// Detect p = 2^256 − c with c < 2^64: then −p mod 2^256 == c and the top
	// three limbs of p are all ones.
	if p[3] == ^uint64(0) && p[2] == ^uint64(0) && p[1] == ^uint64(0) {
		f.cLimb = -p[0] // two's complement: 2^64 − p[0] == c since c ≤ 2^64
		if f.cLimb != 0 {
			f.pm = true
		}
	}
	return f, nil
}

// MustField is NewField for moduli known to be prime; it panics on error.
func MustField(p Int) *Field {
	f, err := NewField(p)
	if err != nil {
		panic(err)
	}
	return f
}

// NewDefaultField returns the field for DefaultPrime.
func NewDefaultField() *Field { return MustField(DefaultPrime()) }

// RandomPrimeField generates a random 256-bit prime with the top bit set and
// returns its field. SIES only needs the modulus to exceed every plaintext
// sum, so "an arbitrary prime p" (paper §IV-A) with 256 bits suffices.
func RandomPrimeField() (*Field, error) {
	bp, err := rand.Prime(rand.Reader, 256)
	if err != nil {
		return nil, err
	}
	p, err := FromBig(bp)
	if err != nil {
		return nil, err
	}
	return NewField(p)
}

// Modulus returns p.
func (f *Field) Modulus() Int { return f.p }

// IsPseudoMersenne reports whether the fast 2^256−c reduction is in use.
func (f *Field) IsPseudoMersenne() bool { return f.pm }

// Reduce returns x mod p for a 256-bit x.
func (f *Field) Reduce(x Int) Int {
	if x.Cmp(f.p) >= 0 {
		x, _ = x.Sub(f.p)
		// A single subtraction suffices only when x < 2p; for arbitrary x
		// (e.g. 2^256−1 with a small p) fall back to full reduction.
		if x.Cmp(f.p) >= 0 {
			return f.Reduce512(word512FromParts(x, Int{}))
		}
	}
	return x
}

// Add returns (x+y) mod p. Inputs must already be reduced.
func (f *Field) Add(x, y Int) Int {
	sum, carry := x.Add(y)
	if carry != 0 {
		// sum represents x+y−2^256; add 2^256−p == −p (mod 2^256) to fold in.
		diff, _ := sum.Sub(f.p)
		return diff
	}
	if sum.Cmp(f.p) >= 0 {
		sum, _ = sum.Sub(f.p)
	}
	return sum
}

// Sub returns (x−y) mod p. Inputs must already be reduced.
func (f *Field) Sub(x, y Int) Int {
	diff, borrow := x.Sub(y)
	if borrow != 0 {
		diff, _ = diff.Add(f.p)
	}
	return diff
}

// Neg returns −x mod p. The input must already be reduced.
func (f *Field) Neg(x Int) Int {
	if x.IsZero() {
		return x
	}
	diff, _ := f.p.Sub(x)
	return diff
}

// Mul returns (x·y) mod p. Inputs must already be reduced.
func (f *Field) Mul(x, y Int) Int {
	return f.Reduce512(x.Mul(y))
}

// Square returns x² mod p.
func (f *Field) Square(x Int) Int { return f.Mul(x, x) }

// Reduce512 returns w mod p for a full 512-bit w.
func (f *Field) Reduce512(w Word512) Int {
	if f.pm {
		return f.reducePM(w)
	}
	return f.reduceKnuth(w)
}

// reducePM reduces modulo p = 2^256 − c using hi·2^256 ≡ hi·c (mod p).
// Two folding rounds plus conditional subtractions bring any 512-bit value
// into [0, p).
func (f *Field) reducePM(w Word512) Int {
	lo, hi := w.Lo(), w.Hi()
	// Round 1: fold hi (≤ 2^256−1): hi·c is at most (2^256−1)·c < 2^320.
	prod, top := hi.MulUint64(f.cLimb)
	lo2, carry := lo.Add(prod)
	hi2 := top + carry // ≤ c, fits a limb
	// Round 2: fold hi2 (single limb): hi2·c ≤ c² < 2^128, cannot carry out
	// past 2^256 after one more addition because lo2 ≤ 2^256−1 and the sum of
	// the folds is < p + 2^128; one extra conditional pass handles the rare
	// carry anyway.
	for hi2 != 0 {
		fold, _ := NewInt(hi2).MulUint64(f.cLimb)
		lo2, carry = lo2.Add(fold)
		hi2 = carry
	}
	for lo2.Cmp(f.p) >= 0 {
		lo2, _ = lo2.Sub(f.p)
	}
	return lo2
}

// reduceKnuth computes w mod p by Knuth's Algorithm D (TAOCP vol. 2, 4.3.1)
// specialised to an 8-limb dividend and 4-limb divisor, returning only the
// remainder.
func (f *Field) reduceKnuth(w Word512) Int {
	// Fast path: high half already zero and low half small.
	if w.Hi().IsZero() {
		lo := w.Lo()
		if lo.Cmp(f.p) < 0 {
			return lo
		}
	}

	// Normalise divisor so its top bit is set.
	shift := uint(bits.LeadingZeros64(f.p[3]))
	var v [4]uint64
	if shift == 0 {
		v = f.p
	} else {
		v[3] = f.p[3]<<shift | f.p[2]>>(64-shift)
		v[2] = f.p[2]<<shift | f.p[1]>>(64-shift)
		v[1] = f.p[1]<<shift | f.p[0]>>(64-shift)
		v[0] = f.p[0] << shift
	}

	// Normalised dividend occupies 9 limbs.
	var u [9]uint64
	if shift == 0 {
		copy(u[:8], w[:])
	} else {
		u[8] = w[7] >> (64 - shift)
		for i := 7; i >= 1; i-- {
			u[i] = w[i]<<shift | w[i-1]>>(64-shift)
		}
		u[0] = w[0] << shift
	}

	// Main loop: m−n = 8−4 = 4 quotient digits, j = 4..0.
	for j := 4; j >= 0; j-- {
		// Estimate qhat = (u[j+4]·2^64 + u[j+3]) / v[3].
		var qhat, rhat uint64
		if u[j+4] >= v[3] {
			qhat = ^uint64(0)
		} else {
			qhat, rhat = bits.Div64(u[j+4], u[j+3], v[3])
			// Refine: while qhat·v[2] > rhat·2^64 + u[j+2].
			for {
				hi, lo := bits.Mul64(qhat, v[2])
				if hi > rhat || (hi == rhat && lo > u[j+2]) {
					qhat--
					var c uint64
					rhat, c = bits.Add64(rhat, v[3], 0)
					if c != 0 {
						break // rhat overflowed 64 bits, qhat now certainly small enough
					}
					continue
				}
				break
			}
		}

		// Multiply-and-subtract: u[j..j+4] −= qhat·v.
		var borrow, mulCarry uint64
		for i := 0; i < 4; i++ {
			hi, lo := bits.Mul64(qhat, v[i])
			lo, c := bits.Add64(lo, mulCarry, 0)
			mulCarry = hi + c
			u[j+i], borrow = bits.Sub64(u[j+i], lo, borrow)
		}
		u[j+4], borrow = bits.Sub64(u[j+4], mulCarry, borrow)

		// Add back when qhat was one too large (probability ≈ 2^−64).
		if borrow != 0 {
			var carry uint64
			for i := 0; i < 4; i++ {
				u[j+i], carry = bits.Add64(u[j+i], v[i], carry)
			}
			u[j+4] += carry
		}
	}

	// Denormalise the remainder in u[0..3].
	var r Int
	if shift == 0 {
		copy(r[:], u[:4])
	} else {
		r[0] = u[0]>>shift | u[1]<<(64-shift)
		r[1] = u[1]>>shift | u[2]<<(64-shift)
		r[2] = u[2]>>shift | u[3]<<(64-shift)
		r[3] = u[3] >> shift
	}
	return r
}

// Exp returns x^e mod p by square-and-multiply.
func (f *Field) Exp(x Int, e Int) Int {
	result := One
	if e.IsZero() {
		return result
	}
	base := f.Reduce(x)
	n := uint(e.BitLen())
	for i := int(n) - 1; i >= 0; i-- {
		result = f.Square(result)
		if e.Bit(uint(i)) == 1 {
			result = f.Mul(result, base)
		}
	}
	return result
}

// InvFermat computes x⁻¹ as x^(p−2); retained as a cross-check oracle and
// for the inversion ablation benchmark.
func (f *Field) InvFermat(x Int) (Int, error) {
	xr := f.Reduce(x)
	if xr.IsZero() {
		return Int{}, ErrNotInvertible
	}
	exp, _ := f.p.Sub(NewInt(2))
	return f.Exp(xr, exp), nil
}

func isOne(x Int) bool { return x[0] == 1 && x[1]|x[2]|x[3] == 0 }

// Rand returns a uniformly random field element in [0, p).
func (f *Field) Rand() (Int, error) {
	b, err := rand.Int(rand.Reader, f.p.ToBig())
	if err != nil {
		return Int{}, err
	}
	return FromBig(b)
}

// RandNonZero returns a uniformly random element of [1, p).
func (f *Field) RandNonZero() (Int, error) {
	pm1, _ := f.p.Sub(One)
	b, err := rand.Int(rand.Reader, pm1.ToBig())
	if err != nil {
		return Int{}, err
	}
	x, err := FromBig(new(big.Int).Add(b, big.NewInt(1)))
	if err != nil {
		return Int{}, err
	}
	return x, nil
}
