package uint256

import "math/bits"

// This file implements the lazy-reduction aggregation kernel and the
// in-place arithmetic variants used by the protocol hot paths.
//
// The SIES merging phase is a long chain of modular additions. Reducing
// after every addition (Field.Add) costs a compare plus a conditional
// subtraction per ciphertext. The lazy kernel instead sums the raw 256-bit
// values into a 512-bit accumulator with plain carry-chain adds and performs
// one Reduce512 at the very end. This is exact: each summand is < 2^256, so
// the running total of n summands is < n·2^256, which fits a Word512 for any
// n < 2^256 — far beyond any deployment size — and
//
//	(Σ xᵢ) mod p  ==  Σ (xᵢ mod p)  (mod p)
//
// so a single final reduction of the 512-bit total equals the sequence of
// per-addition reductions. The summands do not even need to be reduced
// themselves, which lets callers skip a per-element Reduce when feeding raw
// HMAC outputs.

// Accumulator sums 256-bit values into a running 512-bit total without
// intermediate modular reductions. The zero value is an empty sum, ready to
// use. An Accumulator never overflows in practice: the high half grows by at
// most one per Add, so wrapping Word512 would take 2^256 additions.
type Accumulator struct {
	w Word512
}

// Reset empties the accumulator for reuse.
func (a *Accumulator) Reset() { a.w = Word512{} }

// Add folds x into the running total with a plain carry-chain addition.
func (a *Accumulator) Add(x Int) {
	var carry uint64
	a.w[0], carry = bits.Add64(a.w[0], x[0], 0)
	a.w[1], carry = bits.Add64(a.w[1], x[1], carry)
	a.w[2], carry = bits.Add64(a.w[2], x[2], carry)
	a.w[3], carry = bits.Add64(a.w[3], x[3], carry)
	for i := 4; carry != 0 && i < 8; i++ {
		a.w[i], carry = bits.Add64(a.w[i], 0, carry)
	}
}

// AddWord folds a 512-bit w into the running total, for callers that sum a
// batch of values in registers first.
func (a *Accumulator) AddWord(w Word512) {
	var carry uint64
	for i := range a.w {
		a.w[i], carry = bits.Add64(a.w[i], w[i], carry)
	}
}

// Word returns the raw 512-bit total.
func (a *Accumulator) Word() Word512 { return a.w }

// Sum reduces the total into [0, p) — the single deferred reduction.
func (a *Accumulator) Sum(f *Field) Int { return f.Reduce512(a.w) }

// SumLazy returns (Σ xs) mod p using one reduction for the whole slice
// instead of one per element. The elements need not be reduced.
func (f *Field) SumLazy(xs []Int) Int {
	var acc Accumulator
	for i := range xs {
		acc.Add(xs[i])
	}
	return f.Reduce512(acc.w)
}

// AddInto sets *z = (*x + *y) mod p, writing through the pointer instead of
// returning a value. Aliasing is allowed (z may equal x and/or y). Inputs
// must already be reduced.
func (f *Field) AddInto(z, x, y *Int) {
	var carry uint64
	z[0], carry = bits.Add64(x[0], y[0], 0)
	z[1], carry = bits.Add64(x[1], y[1], carry)
	z[2], carry = bits.Add64(x[2], y[2], carry)
	z[3], carry = bits.Add64(x[3], y[3], carry)
	if carry != 0 {
		// z holds x+y−2^256; subtracting p adds 2^256−p, folding the wrap in.
		var borrow uint64
		z[0], borrow = bits.Sub64(z[0], f.p[0], 0)
		z[1], borrow = bits.Sub64(z[1], f.p[1], borrow)
		z[2], borrow = bits.Sub64(z[2], f.p[2], borrow)
		z[3], _ = bits.Sub64(z[3], f.p[3], borrow)
		return
	}
	if z.Cmp(f.p) >= 0 {
		var borrow uint64
		z[0], borrow = bits.Sub64(z[0], f.p[0], 0)
		z[1], borrow = bits.Sub64(z[1], f.p[1], borrow)
		z[2], borrow = bits.Sub64(z[2], f.p[2], borrow)
		z[3], _ = bits.Sub64(z[3], f.p[3], borrow)
	}
}

// MulInto sets *z = (*x · *y) mod p, writing through the pointer. Aliasing
// is allowed. Inputs must already be reduced.
func (f *Field) MulInto(z, x, y *Int) {
	*z = f.Reduce512(x.Mul(*y))
}
