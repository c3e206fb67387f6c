package uint256

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/sies/sies/internal/race"
)

// lazyTestFields returns the two reduction regimes: the pseudo-Mersenne
// default and a generic prime exercising the Knuth path.
func lazyTestFields(t *testing.T) []*Field {
	t.Helper()
	return []*Field{NewDefaultField(), genericField(t)}
}

func TestSumLazyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, f := range lazyTestFields(t) {
		for _, n := range []int{0, 1, 2, 3, 17, 64, 257, 1024} {
			xs := make([]Int, n)
			for i := range xs {
				xs[i] = f.Reduce(randInt(rng))
			}
			var seq Int
			for _, x := range xs {
				seq = f.Add(seq, x)
			}
			if lazy := f.SumLazy(xs); lazy != seq {
				t.Fatalf("field %v n=%d: lazy %v != sequential %v", f.Modulus(), n, lazy, seq)
			}
		}
	}
}

// TestSumLazyUnreducedInputs checks the stronger contract the schedule engine
// relies on: summands may exceed p (raw HMAC outputs) and the single final
// reduction still matches reducing every element first.
func TestSumLazyUnreducedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, f := range lazyTestFields(t) {
		xs := make([]Int, 300)
		for i := range xs {
			xs[i] = randInt(rng) // deliberately unreduced
		}
		var seq Int
		for _, x := range xs {
			seq = f.Add(seq, f.Reduce(x))
		}
		if lazy := f.SumLazy(xs); lazy != seq {
			t.Fatalf("field %v: lazy sum of unreduced inputs diverged", f.Modulus())
		}
	}
}

// TestAccumulatorWorstCaseCarries drives the accumulator with all-ones
// values so every addition carries out of the low half, checking the 512-bit
// total against a math/big oracle.
func TestAccumulatorWorstCaseCarries(t *testing.T) {
	max := Int{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	var acc Accumulator
	oracle := new(big.Int)
	for i := 0; i < 5000; i++ {
		acc.Add(max)
		oracle.Add(oracle, max.ToBig())
	}
	if got := acc.Word().ToBig(); got.Cmp(oracle) != 0 {
		t.Fatalf("accumulator total %v != oracle %v", got, oracle)
	}
	f := NewDefaultField()
	want, _ := FromBig(new(big.Int).Mod(oracle, f.Modulus().ToBig()))
	if got := acc.Sum(f); got != want {
		t.Fatalf("accumulator sum %v != oracle %v", got, want)
	}
	acc.Reset()
	if !acc.Word().IsZero() {
		t.Fatal("Reset did not clear the accumulator")
	}
	// AddWord carries through all eight limbs.
	ones := Word512{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), 7}
	oracle.SetInt64(0)
	for i := 0; i < 100; i++ {
		acc.AddWord(ones)
		acc.Add(max)
		oracle.Add(oracle, ones.ToBig())
		oracle.Add(oracle, max.ToBig())
	}
	if got := acc.Word().ToBig(); got.Cmp(oracle) != 0 {
		t.Fatalf("AddWord total %v != oracle %v", got, oracle)
	}
}

func TestAddIntoMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, f := range lazyTestFields(t) {
		for i := 0; i < 2000; i++ {
			x := f.Reduce(randInt(rng))
			y := f.Reduce(randInt(rng))
			want := f.Add(x, y)
			var z Int
			f.AddInto(&z, &x, &y)
			if z != want {
				t.Fatalf("AddInto(%v,%v) = %v, want %v", x, y, z, want)
			}
			// Aliased forms must agree too.
			zx := x
			f.AddInto(&zx, &zx, &y)
			zy := y
			f.AddInto(&zy, &x, &zy)
			if zx != want || zy != want {
				t.Fatalf("aliased AddInto diverged: %v / %v, want %v", zx, zy, want)
			}
		}
		// Boundary: p−1 + p−1 wraps through the carry path.
		pm1, _ := f.Modulus().Sub(One)
		want := f.Add(pm1, pm1)
		var z Int
		f.AddInto(&z, &pm1, &pm1)
		if z != want {
			t.Fatalf("AddInto(p-1,p-1) = %v, want %v", z, want)
		}
	}
}

func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, f := range lazyTestFields(t) {
		for i := 0; i < 500; i++ {
			x := f.Reduce(randInt(rng))
			y := f.Reduce(randInt(rng))
			want := f.Mul(x, y)
			var z Int
			f.MulInto(&z, &x, &y)
			if z != want {
				t.Fatalf("MulInto(%v,%v) = %v, want %v", x, y, z, want)
			}
			zx := x
			f.MulInto(&zx, &zx, &y)
			if zx != want {
				t.Fatalf("aliased MulInto = %v, want %v", zx, want)
			}
		}
	}
}

// TestSumLazyAllocs is the allocation-regression gate for the lazy kernel:
// the whole merge-shaped loop must stay on the stack.
func TestSumLazyAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	f := NewDefaultField()
	rng := rand.New(rand.NewSource(19))
	xs := make([]Int, 1024)
	for i := range xs {
		xs[i] = f.Reduce(randInt(rng))
	}
	var sink Int
	if n := testing.AllocsPerRun(100, func() {
		sink = f.SumLazy(xs)
	}); n != 0 {
		t.Fatalf("SumLazy allocated %.1f times per run, want 0", n)
	}
	var z Int
	x, y := xs[0], xs[1]
	if n := testing.AllocsPerRun(100, func() {
		f.AddInto(&z, &x, &y)
		f.MulInto(&z, &z, &y)
	}); n != 0 {
		t.Fatalf("AddInto/MulInto allocated %.1f times per run, want 0", n)
	}
	_ = sink
}

// FuzzSumLazy cross-checks the lazy 512-bit accumulator against a math/big
// oracle over arbitrary element streams: random counts, values near p, and
// worst-case carry patterns all reduce to the same residue.
func FuzzSumLazy(f *testing.F) {
	field := NewDefaultField()
	pm1, _ := field.Modulus().Sub(One)
	pb := pm1.Bytes()
	f.Add([]byte{})
	f.Add(make([]byte, 32))
	f.Add(pb[:])
	f.Add(append(pb[:], pb[:]...))
	allOnes := make([]byte, 96)
	for i := range allOnes {
		allOnes[i] = 0xff
	}
	f.Add(allOnes)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Parse the stream as 32-byte big-endian elements; a ragged tail is
		// zero-padded so every input length exercises the kernel.
		var xs []Int
		for i := 0; i < len(data); i += 32 {
			end := i + 32
			if end > len(data) {
				end = len(data)
			}
			x, err := SetBytes(data[i:end])
			if err != nil {
				t.Fatalf("SetBytes on %d-byte chunk: %v", end-i, err)
			}
			xs = append(xs, x)
		}
		got := field.SumLazy(xs)
		oracle := new(big.Int)
		for _, x := range xs {
			oracle.Add(oracle, x.ToBig())
		}
		oracle.Mod(oracle, field.Modulus().ToBig())
		want, err := FromBig(oracle)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("SumLazy over %d elements = %v, oracle %v", len(xs), got, want)
		}
	})
}
