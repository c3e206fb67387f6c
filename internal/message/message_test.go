package message

import (
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/sies/sies/internal/secretshare"
	"github.com/sies/sies/internal/uint256"
)

// wideSources returns the source count 2^shift. Counts of 2^31 and above do
// not fit a 32-bit int, so on 32-bit builds the calling test stops there,
// skipped, after every check that precedes the call.
func wideSources(t testing.TB, shift uint) int {
	t.Helper()
	if shift >= strconv.IntSize-1 {
		t.Skipf("2^%d sources do not fit a %d-bit int", shift, strconv.IntSize)
	}
	return 1 << shift
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11, 1 << 20: 20}
	for n, want := range cases {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNewLayoutValidation(t *testing.T) {
	if _, err := New(0, ValueBits32); !errors.Is(err, ErrNoSources) {
		t.Fatalf("n=0: %v", err)
	}
	if _, err := New(8, 48); !errors.Is(err, ErrValueBits) {
		t.Fatalf("bits=48: %v", err)
	}
	// 32-bit values: pad can grow to 256-32-160 = 64 bits → n up to 2^64;
	// any int n is accepted.
	if _, err := New(1<<30, ValueBits32); err != nil {
		t.Fatalf("n=2^30/32-bit: %v", err)
	}
	// 64-bit values: pad limited to 32 bits → n up to 2^32.
	if _, err := New(wideSources(t, 31), ValueBits64); err != nil {
		t.Fatalf("n=2^31/64-bit: %v", err)
	}
	if _, err := New(wideSources(t, 33), ValueBits64); !errors.Is(err, ErrTooManySources) {
		t.Fatal("n=2^33/64-bit accepted")
	}
}

func TestLayoutAccessors(t *testing.T) {
	l := MustNew(1024, ValueBits32)
	if l.ValueBits() != 32 || l.PadBits() != 10 || l.Sources() != 1024 {
		t.Fatalf("layout = %+v", l)
	}
	if l.TotalBits() != 32+10+160 {
		t.Fatalf("TotalBits = %d", l.TotalBits())
	}
	if l.MaxValue() != 1<<32-1 {
		t.Fatalf("MaxValue = %d", l.MaxValue())
	}
	w := MustNew(4, ValueBits64)
	if w.MaxValue() != ^uint64(0) {
		t.Fatalf("64-bit MaxValue = %d", w.MaxValue())
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	l := MustNew(1024, ValueBits32)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := uint64(r.Uint32())
		var ss secretshare.Share
		r.Read(ss[:])
		m, err := l.Pack(v, ss)
		if err != nil {
			t.Fatal(err)
		}
		gotV, gotS, err := l.Unpack(m)
		if err != nil {
			t.Fatal(err)
		}
		if gotV != v || gotS != ss.Int() {
			t.Fatalf("round trip lost data: v=%d→%d", v, gotV)
		}
	}
}

func TestPackValueRange(t *testing.T) {
	l := MustNew(4, ValueBits32)
	var ss secretshare.Share
	if _, err := l.Pack(1<<32, ss); !errors.Is(err, ErrValueRange) {
		t.Fatalf("oversized value: %v", err)
	}
	if _, err := l.Pack(1<<32-1, ss); err != nil {
		t.Fatalf("max value rejected: %v", err)
	}
}

func TestAggregationPreservesFields(t *testing.T) {
	// The core layout invariant: summing N packed plaintexts as plain
	// integers keeps value and share sums separated by the padding.
	for _, n := range []int{1, 2, 7, 64, 1024} {
		l := MustNew(n, ValueBits32)
		r := rand.New(rand.NewSource(int64(n)))
		var agg uint256.Int
		var wantV uint64
		var shares []secretshare.Share
		for i := 0; i < n; i++ {
			v := uint64(r.Intn(1 << 20)) // keep Σv below 2^32
			var ss secretshare.Share
			r.Read(ss[:])
			m, err := l.Pack(v, ss)
			if err != nil {
				t.Fatal(err)
			}
			var carry uint64
			agg, carry = agg.Add(m)
			if carry != 0 {
				t.Fatal("aggregate overflowed 256 bits")
			}
			wantV += v
			shares = append(shares, ss)
		}
		gotV, gotS, err := l.Unpack(agg)
		if err != nil {
			t.Fatal(err)
		}
		if gotV != wantV {
			t.Fatalf("n=%d: value sum %d, want %d", n, gotV, wantV)
		}
		if gotS != secretshare.SumShares(shares) {
			t.Fatalf("n=%d: share sum mismatch", n)
		}
	}
}

func TestPaddingAbsorbsWorstCaseCarry(t *testing.T) {
	// All-ones shares from every source: the carry out of the share field is
	// exactly ceil(log2 n) bits — the padding must swallow it all.
	n := 1024
	l := MustNew(n, ValueBits32)
	var ss secretshare.Share
	for i := range ss {
		ss[i] = 0xff
	}
	var agg uint256.Int
	for i := 0; i < n; i++ {
		m, err := l.Pack(3, ss)
		if err != nil {
			t.Fatal(err)
		}
		agg, _ = agg.Add(m)
	}
	gotV, gotS, err := l.Unpack(agg)
	if err != nil {
		t.Fatal(err)
	}
	if gotV != uint64(3*n) {
		t.Fatalf("value corrupted by share carries: %d", gotV)
	}
	want, _ := ss.Int().MulUint64(uint64(n))
	if gotS != want {
		t.Fatal("share sum mismatch under worst-case carry")
	}
}

func TestUnpackOverflowDetected(t *testing.T) {
	l := MustNew(4, ValueBits32)
	// Craft an aggregate whose value region exceeds 32 bits.
	m := uint256.NewInt(1 << 33).Lsh(l.shareRegionBits())
	if _, _, err := l.Unpack(m); !errors.Is(err, ErrValueRange) {
		t.Fatalf("overflowed value accepted: %v", err)
	}
}

func TestFitsField(t *testing.T) {
	f := uint256.NewDefaultField()
	if !MustNew(1024, ValueBits32).FitsField(f) {
		t.Fatal("32-bit/1024 layout rejected by default field")
	}
	if !MustNew(1<<20, ValueBits32).FitsField(f) {
		t.Fatal("32-bit/2^20 layout rejected by default field")
	}
	// A modest 64-bit layout fits: 64+2+160 = 226 bits.
	if !MustNew(4, ValueBits64).FitsField(f) {
		t.Fatal("small 64-bit layout rejected")
	}
	// The extreme 64-bit corner (64+32+160 = 256 bits all used) cannot fit
	// below 2^256−189.
	if MustNew(wideSources(t, 32), ValueBits64).FitsField(f) {
		t.Fatal("full-width 64-bit layout claimed to fit")
	}
}

func TestWideValueLayout(t *testing.T) {
	l := MustNew(16, ValueBits64)
	var ss secretshare.Share
	ss[19] = 1
	big := uint64(1) << 40
	m, err := l.Pack(big, ss)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := l.Unpack(m)
	if err != nil {
		t.Fatal(err)
	}
	if v != big {
		t.Fatalf("wide value round trip: %d", v)
	}
}

func BenchmarkPack(b *testing.B) {
	l := MustNew(1024, ValueBits32)
	var ss secretshare.Share
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := l.Pack(uint64(i&0xffff), ss); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpack(b *testing.B) {
	l := MustNew(1024, ValueBits32)
	var ss secretshare.Share
	m, _ := l.Pack(4242, ss)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.Unpack(m); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPadWidthCapacity(t *testing.T) {
	// Ablation 3 (DESIGN.md §5): padding a full 64 bits supports up to 2^64
	// sources but leaves exactly 32 bits for the value field; the exact
	// ceil(log2 N) pad keeps the headroom proportional to the deployment.
	exact := MustNew(1024, ValueBits32)
	if exact.PadBits() != 10 {
		t.Fatalf("exact pad = %d", exact.PadBits())
	}
	full := MustNew(wideSources(t, 50), ValueBits32)
	if full.PadBits() != 50 {
		t.Fatalf("full pad = %d", full.PadBits())
	}
	// With 64-bit values, a 2^32-source deployment exhausts all 256 bits.
	if l := MustNew(wideSources(t, 32), ValueBits64); l.TotalBits() != 256 {
		t.Fatalf("total = %d", l.TotalBits())
	}
}

func TestPackUnpackQuick(t *testing.T) {
	// Property: Unpack ∘ Pack is the identity for any in-range value/share
	// across random layouts.
	r := rand.New(rand.NewSource(31))
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, _ *rand.Rand) {
			n := 1 + r.Intn(1<<16)
			bits := ValueBits32
			if r.Intn(2) == 0 {
				bits = ValueBits64
			}
			l := MustNew(n, bits)
			v := r.Uint64()
			if bits == ValueBits32 {
				v &= 1<<32 - 1
			}
			var ss secretshare.Share
			r.Read(ss[:])
			vals[0] = reflect.ValueOf(l)
			vals[1] = reflect.ValueOf(v)
			vals[2] = reflect.ValueOf(ss)
		},
	}
	prop := func(l Layout, v uint64, ss secretshare.Share) bool {
		m, err := l.Pack(v, ss)
		if err != nil {
			return false
		}
		gotV, gotS, err := l.Unpack(m)
		return err == nil && gotV == v && gotS == ss.Int()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
