package uint256

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestDefaultPrimeIsPrime(t *testing.T) {
	p := DefaultPrime()
	if !p.ToBig().ProbablyPrime(64) {
		t.Fatal("2^256-189 failed primality test")
	}
	want := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(189))
	if p.ToBig().Cmp(want) != 0 {
		t.Fatalf("DefaultPrime = %v, want 2^256-189", p)
	}
}

func TestNewFieldRejectsComposite(t *testing.T) {
	composite := Int{0, 0, 0, 1 << 32} // 2^224, even
	if _, err := NewField(composite); err == nil {
		t.Fatal("composite modulus accepted")
	}
}

func TestNewFieldRejectsSmall(t *testing.T) {
	if _, err := NewField(NewInt(7)); err == nil {
		t.Fatal("sub-192-bit modulus accepted")
	}
}

func TestDefaultFieldIsPseudoMersenne(t *testing.T) {
	f := NewDefaultField()
	if !f.IsPseudoMersenne() {
		t.Fatal("2^256-189 not detected as pseudo-Mersenne")
	}
	if f.cLimb != 189 {
		t.Fatalf("c = %d, want 189", f.cLimb)
	}
}

// knuthOnlyField builds a field for the default prime with the
// pseudo-Mersenne path disabled, so both reducers can be cross-checked.
func knuthOnlyField(t *testing.T) *Field {
	t.Helper()
	f := NewDefaultField()
	g := *f
	g.pm = false
	return &g
}

// genericField returns a non-pseudo-Mersenne prime field (NIST P-256's
// order-of-magnitude prime picked to exercise the Knuth path naturally).
func genericField(t testing.TB) *Field {
	t.Helper()
	// p256 = 2^256 - 2^224 + 2^192 + 2^96 - 1 (the NIST P-256 field prime).
	b, ok := new(big.Int).SetString(
		"ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", 16)
	if !ok {
		t.Fatal("bad literal")
	}
	p, err := FromBig(b)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewField(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.IsPseudoMersenne() {
		t.Fatal("P-256 prime misdetected as pseudo-Mersenne")
	}
	return f
}

func testFieldAgainstBig(t *testing.T, f *Field, seed int64, rounds int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pb := f.Modulus().ToBig()
	for i := 0; i < rounds; i++ {
		a := f.Reduce512(word512FromParts(randInt(r), Int{}))
		b := f.Reduce512(word512FromParts(randInt(r), Int{}))
		ab, bb := a.ToBig(), b.ToBig()

		if got, want := f.Add(a, b).ToBig(), new(big.Int).Mod(new(big.Int).Add(ab, bb), pb); got.Cmp(want) != 0 {
			t.Fatalf("Add mismatch: %v + %v", a, b)
		}
		if got, want := f.Sub(a, b).ToBig(), new(big.Int).Mod(new(big.Int).Sub(ab, bb), pb); got.Cmp(want) != 0 {
			t.Fatalf("Sub mismatch: %v - %v", a, b)
		}
		if got, want := f.Mul(a, b).ToBig(), new(big.Int).Mod(new(big.Int).Mul(ab, bb), pb); got.Cmp(want) != 0 {
			t.Fatalf("Mul mismatch: %v * %v", a, b)
		}
		if got, want := f.Neg(a).ToBig(), new(big.Int).Mod(new(big.Int).Neg(ab), pb); got.Cmp(want) != 0 {
			t.Fatalf("Neg mismatch: %v", a)
		}

		// Raw 512-bit reduction on an arbitrary (unreduced) product.
		x, y := randInt(r), randInt(r)
		w := x.Mul(y)
		want := new(big.Int).Mod(w.ToBig(), pb)
		if got := f.Reduce512(w).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Reduce512 mismatch on %v * %v", x, y)
		}

		// Single-width reduction on arbitrary input.
		z := randInt(r)
		want = new(big.Int).Mod(z.ToBig(), pb)
		if got := f.Reduce(z).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Reduce mismatch on %v", z)
		}
	}
}

func TestFieldPMAgainstBig(t *testing.T)      { testFieldAgainstBig(t, NewDefaultField(), 1, 3000) }
func TestFieldKnuthAgainstBig(t *testing.T)   { testFieldAgainstBig(t, knuthOnlyField(t), 2, 3000) }
func TestFieldGenericAgainstBig(t *testing.T) { testFieldAgainstBig(t, genericField(t), 3, 3000) }

func TestReducersAgree(t *testing.T) {
	pm := NewDefaultField()
	kn := knuthOnlyField(t)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		w := randInt(r).Mul(randInt(r))
		if pm.Reduce512(w) != kn.Reduce512(w) {
			t.Fatalf("reducer disagreement on %v", w)
		}
	}
}

func TestInv(t *testing.T) {
	for name, f := range map[string]*Field{"pm": NewDefaultField(), "generic": genericField(t)} {
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 50; i++ {
			x := f.Reduce(randInt(r))
			if x.IsZero() {
				continue
			}
			inv, err := f.Inv(x)
			if err != nil {
				t.Fatalf("%s: Inv error: %v", name, err)
			}
			if got := f.Mul(x, inv); got != One {
				t.Fatalf("%s: x * x^-1 = %v, want 1", name, got)
			}
		}
		if _, err := f.Inv(Zero); err != ErrNotInvertible {
			t.Fatalf("%s: Inv(0) err = %v", name, err)
		}
	}
}

func TestExp(t *testing.T) {
	f := NewDefaultField()
	pb := f.Modulus().ToBig()
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 30; i++ {
		x := f.Reduce(randInt(r))
		e := NewInt(uint64(r.Intn(1 << 16)))
		want := new(big.Int).Exp(x.ToBig(), e.ToBig(), pb)
		if got := f.Exp(x, e).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Exp mismatch: %v^%v", x, e)
		}
	}
	if got := f.Exp(NewInt(12345), Zero); got != One {
		t.Fatalf("x^0 = %v", got)
	}
}

func TestFermat(t *testing.T) {
	// x^(p-1) == 1 for x != 0 — a strong end-to-end check of Exp + reduction.
	f := NewDefaultField()
	exp, _ := f.Modulus().Sub(One)
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 10; i++ {
		x := f.Reduce(randInt(r))
		if x.IsZero() {
			continue
		}
		if got := f.Exp(x, exp); got != One {
			t.Fatalf("x^(p-1) = %v, want 1", got)
		}
	}
}

func TestRandomPrimeField(t *testing.T) {
	f, err := RandomPrimeField()
	if err != nil {
		t.Fatal(err)
	}
	if f.Modulus().BitLen() != 256 {
		t.Fatalf("random prime bitlen = %d", f.Modulus().BitLen())
	}
	x, err := f.RandNonZero()
	if err != nil {
		t.Fatal(err)
	}
	if x.IsZero() || x.Cmp(f.Modulus()) >= 0 {
		t.Fatal("RandNonZero out of range")
	}
	inv, err := f.Inv(x)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mul(x, inv) != One {
		t.Fatal("inverse in random field failed")
	}
}

func TestRandUniformRange(t *testing.T) {
	f := NewDefaultField()
	for i := 0; i < 20; i++ {
		x, err := f.Rand()
		if err != nil {
			t.Fatal(err)
		}
		if x.Cmp(f.Modulus()) >= 0 {
			t.Fatal("Rand out of range")
		}
	}
}

func TestAddWithCarryWrap(t *testing.T) {
	// (p-1) + (p-1) mod p == p-2; exercises the carry-out branch of Add.
	f := NewDefaultField()
	pm1, _ := f.Modulus().Sub(One)
	want, _ := f.Modulus().Sub(NewInt(2))
	if got := f.Add(pm1, pm1); got != want {
		t.Fatalf("(p-1)+(p-1) = %v, want p-2", got)
	}
}

func TestSubBorrow(t *testing.T) {
	f := NewDefaultField()
	got := f.Sub(Zero, One)
	want, _ := f.Modulus().Sub(One)
	if got != want {
		t.Fatalf("0-1 = %v, want p-1", got)
	}
}

func BenchmarkFieldMulPM(b *testing.B) {
	f := NewDefaultField()
	x, _ := f.Rand()
	y, _ := f.Rand()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = f.Mul(x, y)
	}
}

func BenchmarkFieldMulKnuth(b *testing.B) {
	f := NewDefaultField()
	g := *f
	g.pm = false
	x, _ := g.Rand()
	y, _ := g.Rand()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = g.Mul(x, y)
	}
}

func BenchmarkFieldAdd(b *testing.B) {
	f := NewDefaultField()
	x, _ := f.Rand()
	y, _ := f.Rand()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = f.Add(x, y)
	}
}

func BenchmarkFieldInv(b *testing.B) {
	f := NewDefaultField()
	x, _ := f.RandNonZero()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Inv(x); err != nil {
			b.Fatal(err)
		}
	}
}

// invEdgeValues are inverse inputs at the edges of the batched GCD: 1, the
// small values, p−1 and p−2, powers of two, and values just around 2^31,
// 2^64 and 2^192, where the 64-bit approximations switch between exact and
// approximate.
func invEdgeValues(f *Field) []Int {
	p := f.Modulus()
	pm1, _ := p.Sub(One)
	pm2, _ := p.Sub(NewInt(2))
	xs := []Int{One, NewInt(2), NewInt(3), pm1, pm2, {0, 1, 0, 0}, {^uint64(0), 0, 0, 0}, {0, 0, 0, 1}, {^uint64(0), ^uint64(0), ^uint64(0), 0}}
	for k := uint(0); k < 256; k += 31 {
		xs = append(xs, One.Lsh(k))
		if k > 0 {
			m, _ := One.Lsh(k).Sub(One)
			xs = append(xs, m)
		}
	}
	var out []Int
	for _, x := range xs {
		if x = f.Reduce(x); !x.IsZero() {
			out = append(out, x)
		}
	}
	return out
}

func TestInvMatchesFermat(t *testing.T) {
	for name, f := range map[string]*Field{"pm": NewDefaultField(), "generic": genericField(t)} {
		r := rand.New(rand.NewSource(13))
		xs := invEdgeValues(f)
		for i := 0; i < 2000; i++ {
			x := f.Reduce(randInt(r))
			if i%4 == 0 {
				x = x.Rsh(uint(r.Intn(256))) // short values too
			}
			if !x.IsZero() {
				xs = append(xs, x)
			}
		}
		for _, x := range xs {
			inv, err := f.Inv(x)
			if err != nil {
				t.Fatalf("%s: Inv(%v): %v", name, x, err)
			}
			fermat, err := f.InvFermat(x)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if inv != fermat {
				t.Fatalf("%s: Inv %v != Fermat %v for x=%v", name, inv, fermat, x)
			}
		}
		if _, err := f.InvFermat(Zero); err != ErrNotInvertible {
			t.Fatalf("%s: InvFermat(0): %v", name, err)
		}
		if _, err := f.Inv(f.Modulus()); err != ErrNotInvertible {
			t.Fatalf("%s: Inv(p): %v", name, err)
		}
	}
}

// FuzzInv compares Inv with math/big's ModInverse on the pseudo-Mersenne
// and the generic field.
func FuzzInv(f *testing.F) {
	pm := NewDefaultField()
	for _, x := range invEdgeValues(pm) {
		f.Add(x[0], x[1], x[2], x[3])
	}
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	fields := map[string]*Field{"pm": pm, "generic": genericField(f)}
	f.Fuzz(func(t *testing.T, x0, x1, x2, x3 uint64) {
		for name, fd := range fields {
			x := fd.Reduce(Int{x0, x1, x2, x3})
			inv, err := fd.Inv(x)
			if x.IsZero() {
				if err != ErrNotInvertible {
					t.Fatalf("%s: Inv(0): %v", name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: Inv(%v): %v", name, x, err)
			}
			want := new(big.Int).ModInverse(x.ToBig(), fd.Modulus().ToBig())
			if inv.ToBig().Cmp(want) != 0 {
				t.Fatalf("%s: Inv(%v) = %v, want %v", name, x, inv, want)
			}
		}
	})
}

func TestInvSmallValues(t *testing.T) {
	f := NewDefaultField()
	for v := uint64(1); v <= 64; v++ {
		inv, err := f.Inv(NewInt(v))
		if err != nil {
			t.Fatal(err)
		}
		if f.Mul(NewInt(v), inv) != One {
			t.Fatalf("Inv(%d) wrong", v)
		}
	}
	// x = p-1 == -1: its own inverse.
	pm1, _ := f.Modulus().Sub(One)
	inv, err := f.Inv(pm1)
	if err != nil {
		t.Fatal(err)
	}
	if inv != pm1 {
		t.Fatalf("Inv(p-1) = %v, want p-1", inv)
	}
}

func BenchmarkFieldInvEuclid(b *testing.B) {
	f := NewDefaultField()
	x, _ := f.RandNonZero()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Inv(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFieldInvFermat(b *testing.B) {
	f := NewDefaultField()
	x, _ := f.RandNonZero()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.InvFermat(x); err != nil {
			b.Fatal(err)
		}
	}
}
