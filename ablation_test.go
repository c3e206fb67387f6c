// Ablation benchmarks for the design decisions recorded in DESIGN.md §5.
// Each pair isolates one choice so the cost of the alternative is visible:
//
//	go test -bench 'BenchmarkAblation' -benchmem
package sies_test

import (
	"math/big"
	"strconv"
	"testing"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/message"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/secretshare"
	"github.com/sies/sies/internal/uint256"
)

// Ablation 1 — fixed-width limb arithmetic (internal/uint256) vs math/big
// for the hot field multiplication of the SIES cipher.

func BenchmarkAblationFieldMulUint256(b *testing.B) {
	f := uint256.NewDefaultField()
	x, _ := f.Rand()
	y, _ := f.RandNonZero()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = f.Mul(x, y)
	}
}

func BenchmarkAblationFieldMulBigInt(b *testing.B) {
	p := uint256.DefaultPrime().ToBig()
	f := uint256.NewDefaultField()
	xi, _ := f.Rand()
	yi, _ := f.RandNonZero()
	x, y := xi.ToBig(), yi.ToBig()
	tmp := new(big.Int)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmp.Mul(x, y)
		x.Mod(tmp, p)
	}
}

// Ablation 2 — pseudo-Mersenne folding (p = 2^256−189) vs generic Knuth-D
// division for the same modulus. Exercised via Exp, whose inner loop is all
// multiply-reduce.

func BenchmarkAblationReducePM(b *testing.B) {
	f := uint256.NewDefaultField() // pseudo-Mersenne path
	benchReduce(b, f)
}

func BenchmarkAblationReduceKnuth(b *testing.B) {
	// The NIST P-256 prime is not pseudo-Mersenne in the 2^256−c sense, so
	// the generic reducer runs.
	pb, _ := new(big.Int).SetString(
		"ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", 16)
	p, err := uint256.FromBig(pb)
	if err != nil {
		b.Fatal(err)
	}
	f, err := uint256.NewField(p)
	if err != nil {
		b.Fatal(err)
	}
	benchReduce(b, f)
}

func benchReduce(b *testing.B, f *uint256.Field) {
	b.Helper()
	x, _ := f.RandNonZero()
	e := uint256.NewInt(1<<62 + 12345)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Exp(x, e)
	}
}

// Ablation 3 — padding width. The paper pads with exactly ceil(log2 N)
// zero bits; padding a full 8 bytes always (supporting N up to 2^64 without
// reconfiguration) costs nothing at runtime but caps the value field. The
// pair shows pack cost is identical — the tradeoff is purely capacity,
// which TestPadWidthCapacity in the message package pins down.

func BenchmarkAblationPadExact(b *testing.B) {
	l := message.MustNew(1024, message.ValueBits32) // 10 pad bits
	benchPack(b, l)
}

func BenchmarkAblationPadFull(b *testing.B) {
	// 2^50 sources forces a ~50-bit pad — near the 64-bit maximum.
	if strconv.IntSize < 64 {
		b.Skip("2^50 sources do not fit a 32-bit int")
	}
	shift := 50 // a variable, so the shift compiles where int is 32 bits
	l := message.MustNew(1<<shift, message.ValueBits32)
	benchPack(b, l)
}

func benchPack(b *testing.B, l message.Layout) {
	b.Helper()
	var ss secretshare.Share
	for i := range ss {
		ss[i] = byte(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Pack(uint64(i&0xffff), ss); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation 4 — share PRF choice: HMAC-SHA1 (paper, 20-byte shares) vs
// HMAC-SHA256 (32-byte shares). SHA-256 shares would not leave room for the
// value field in a 256-bit plaintext (32+pad+256 > 256 bits), so the paper's
// choice is structural, not just a speed preference; the speed difference is
// what this pair quantifies.

func BenchmarkAblationShareSHA1(b *testing.B) {
	key := make([]byte, prf.LongTermKeySize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prf.HM1Epoch(key, prf.Epoch(i))
	}
}

func BenchmarkAblationShareSHA256(b *testing.B) {
	key := make([]byte, prf.LongTermKeySize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prf.HM256Epoch(key, prf.Epoch(i))
	}
}

// Ablation 5 — value width: 4-byte (paper default) vs 8-byte (footnote 1)
// value fields, measured end to end at the source.

func BenchmarkAblationValue32(b *testing.B) {
	benchSourceWidth(b)
}

func BenchmarkAblationValue64(b *testing.B) {
	benchSourceWidth(b, core.WithWideValues())
}

func benchSourceWidth(b *testing.B, opts ...core.Option) {
	b.Helper()
	_, sources, err := core.Setup(1024, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sources[0].Encrypt(prf.Epoch(i), 3000); err != nil {
			b.Fatal(err)
		}
	}
}
