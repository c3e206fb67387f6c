package prf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"github.com/sies/sies/internal/race"
	"github.com/sies/sies/internal/uint256"
)

// engine is what both derivation engines serve for one key. Tests call each
// engine directly, so the stdlib engine is covered on SHA-NI CPUs too.
type engine interface {
	epoch256(t Epoch, out *[Size256]byte)
	epoch1(t Epoch, out *[Size1]byte)
}

// sweepFunc is one engine's RingDerivers.SumRange over a fixed key set.
type sweepFunc func(blk *InnerBlock, ids []int, k *uint256.Accumulator, ss *uint256.Int) error

type namedEngine struct {
	name  string
	skip  string                  // why this CPU cannot run the engine; "" when it can
	new   func(key []byte) engine // nil for the vector engine, which has no single-key path
	sweep func(keys [][]byte) sweepFunc
}

var engines = []namedEngine{
	{"stdlib", "", func(key []byte) engine { return newStdPads(key) }, func(keys [][]byte) sweepFunc {
		std := make([]*stdPads, len(keys))
		for i, key := range keys {
			std[i] = newStdPads(key)
		}
		return func(blk *InnerBlock, ids []int, k *uint256.Accumulator, ss *uint256.Int) error {
			return sumRangeStd(std, blk.t, ids, k, ss)
		}
	}},
	{"sha-ni", skipUnless(haveSHANI, noSHANI), func(key []byte) engine { p := newKeyPads(key); return &p }, func(keys [][]byte) sweepFunc {
		pads := testPads(keys)
		return func(blk *InnerBlock, ids []int, k *uint256.Accumulator, ss *uint256.Int) error {
			return sumRange(pads, blk, ids, k, ss)
		}
	}},
	{"avx512", skipUnless(haveAVX512, noAVX512), nil, func(keys [][]byte) sweepFunc {
		pads := testPads(keys)
		return func(blk *InnerBlock, ids []int, k *uint256.Accumulator, ss *uint256.Int) error {
			return sumRangeVec(pads, blk, ids, k, ss)
		}
	}},
}

const (
	noSHANI  = "CPUID reports no SHA-NI"
	noAVX512 = "CPUID or XGETBV reports no AVX-512F with the opmask and ZMM state"
)

func skipUnless(have bool, why string) string {
	if have {
		return ""
	}
	return why
}

func testPads(keys [][]byte) []keyPads {
	pads := make([]keyPads, len(keys))
	for i, key := range keys {
		pads[i] = newKeyPads(key)
	}
	return pads
}

// forEachEngine runs f as one subtest per single-key engine, skipping an
// engine this CPU cannot run.
func forEachEngine(t *testing.T, f func(t *testing.T, newEngine func(key []byte) engine)) {
	for _, e := range engines {
		if e.new != nil {
			runEngine(t, e, func(t *testing.T, e namedEngine) { f(t, e.new) })
		}
	}
}

// forEachSweep runs f as one subtest per engine's sweep.
func forEachSweep(t *testing.T, f func(t *testing.T, e namedEngine)) {
	for _, e := range engines {
		runEngine(t, e, f)
	}
}

func runEngine(t *testing.T, e namedEngine, f func(t *testing.T, e namedEngine)) {
	t.Run(e.name, func(t *testing.T) {
		if e.skip != "" {
			t.Skip(e.skip)
		}
		f(t, e)
	})
}

// deriverTestKeys covers the HMAC key regimes: empty, short (the deployed
// 20-byte form), exactly one block, and longer than a block (hashed down per
// RFC 2104).
func deriverTestKeys() [][]byte {
	long := bytes.Repeat([]byte{0xaa}, 131)
	block := bytes.Repeat([]byte{0x0b}, hmacBlockSize)
	return [][]byte{
		{},
		[]byte("Jefe"),
		bytes.Repeat([]byte{0x0b}, LongTermKeySize),
		block,
		long,
	}
}

func TestDeriverMatchesHMAC(t *testing.T) {
	for ki, key := range deriverTestKeys() {
		d := NewDeriver(key)
		for _, epoch := range []Epoch{0, 1, 2, 1 << 20, ^Epoch(0)} {
			if got, want := d.Epoch256(epoch), HM256Epoch(key, epoch); got != want {
				t.Fatalf("key %d epoch %d: Epoch256 = %x, want %x", ki, epoch, got, want)
			}
			if got, want := d.Epoch1(epoch), HM1Epoch(key, epoch); got != want {
				t.Fatalf("key %d epoch %d: Epoch1 = %x, want %x", ki, epoch, got, want)
			}
		}
		// Interleaving the two PRFs must not cross-contaminate state.
		a := d.Epoch256(7)
		b := d.Epoch1(7)
		if a != HM256Epoch(key, 7) || b != HM1Epoch(key, 7) {
			t.Fatalf("key %d: interleaved derivations diverged", ki)
		}
	}
	forEachEngine(t, func(t *testing.T, newEngine func([]byte) engine) {
		for ki, key := range deriverTestKeys() {
			e := newEngine(key)
			for _, epoch := range []Epoch{0, 1, 2, 1 << 20, ^Epoch(0)} {
				var k [Size256]byte
				var s [Size1]byte
				e.epoch256(epoch, &k)
				e.epoch1(epoch, &s)
				if k != HM256Epoch(key, epoch) || s != HM1Epoch(key, epoch) {
					t.Fatalf("key %d epoch %d: engine output differs from crypto/hmac", ki, epoch)
				}
			}
		}
	})
}

// FuzzDeriver compares every engine with crypto/hmac for keys of 0–200
// bytes and any epoch.
func FuzzDeriver(f *testing.F) {
	for _, key := range deriverTestKeys() {
		f.Add(key, uint64(0))
		f.Add(key, ^uint64(0))
	}
	f.Add(bytes.Repeat([]byte{0x5c}, hmacBlockSize+1), uint64(1<<40))
	f.Add(bytes.Repeat([]byte{0x36}, 200), uint64(12345))
	f.Fuzz(func(t *testing.T, key []byte, epoch uint64) {
		if len(key) > 200 {
			return
		}
		te := Epoch(epoch)
		want256, want1 := HM256Epoch(key, te), HM1Epoch(key, te)
		for _, ne := range engines {
			if ne.skip != "" || ne.new == nil {
				continue
			}
			e := ne.new(key)
			var k [Size256]byte
			var s [Size1]byte
			e.epoch256(te, &k)
			e.epoch1(te, &s)
			if k != want256 {
				t.Fatalf("%s: HM256(%x, %d) = %x, want %x", ne.name, key, epoch, k, want256)
			}
			if s != want1 {
				t.Fatalf("%s: HM1(%x, %d) = %x, want %x", ne.name, key, epoch, s, want1)
			}
		}
	})
}

// padMessage appends SHA-1/SHA-256 padding (both use the same 64-byte block
// padding with a big-endian bit length) and returns whole blocks.
func padMessage(msg []byte) []byte {
	out := append([]byte(nil), msg...)
	out = append(out, 0x80)
	for len(out)%hmacBlockSize != 56 {
		out = append(out, 0)
	}
	return binary.BigEndian.AppendUint64(out, uint64(len(msg))*8)
}

func TestBlock256MatchesSHA256(t *testing.T) {
	if !haveSHANI {
		t.Skip(noSHANI)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		msg := make([]byte, rng.Intn(3*hmacBlockSize))
		rng.Read(msg)
		padded := padMessage(msg)
		h := iv256
		for len(padded) > 0 {
			block256(&h, (*[hmacBlockSize]byte)(padded))
			padded = padded[hmacBlockSize:]
		}
		var got [Size256]byte
		for j, v := range h {
			binary.BigEndian.PutUint32(got[4*j:], v)
		}
		if want := sha256.Sum256(msg); got != want {
			t.Fatalf("len %d: block256 digest %x, want %x", len(msg), got, want)
		}
	}
}

func TestBlock1MatchesSHA1(t *testing.T) {
	if !haveSHANI {
		t.Skip(noSHANI)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		msg := make([]byte, rng.Intn(3*hmacBlockSize))
		rng.Read(msg)
		padded := padMessage(msg)
		h := iv1
		for len(padded) > 0 {
			block1(&h, (*[hmacBlockSize]byte)(padded))
			padded = padded[hmacBlockSize:]
		}
		var got [Size1]byte
		for j, v := range h {
			binary.BigEndian.PutUint32(got[4*j:], v)
		}
		if want := sha1.Sum(msg); got != want {
			t.Fatalf("len %d: block1 digest %x, want %x", len(msg), got, want)
		}
	}
}

// refSums is the reference for a sweep over ids at epoch t: the plain
// integer sums of HMAC-SHA256(key_i, t) and HMAC-SHA1(key_i, t), through
// crypto/hmac and math/big.
func refSums(keys [][]byte, t Epoch, ids []int) (k, ss *big.Int) {
	k, ss = new(big.Int), new(big.Int)
	msg := t.Bytes()
	for _, id := range ids {
		m := hmac.New(sha256.New, keys[id])
		m.Write(msg[:])
		k.Add(k, new(big.Int).SetBytes(m.Sum(nil)))
		m = hmac.New(sha1.New, keys[id])
		m.Write(msg[:])
		ss.Add(ss, new(big.Int).SetBytes(m.Sum(nil)))
	}
	return k, ss
}

// checkSweep runs one sweep over ids at epoch t and compares its sums with
// refSums.
func checkSweep(t *testing.T, sweep sweepFunc, keys [][]byte, epoch Epoch, ids []int) {
	t.Helper()
	var blk InnerBlock
	blk.Set(epoch)
	var k uint256.Accumulator
	var ss uint256.Int
	if err := sweep(&blk, ids, &k, &ss); err != nil {
		t.Fatalf("epoch %d, %d ids: %v", epoch, len(ids), err)
	}
	wantK, wantS := refSums(keys, epoch, ids)
	if got := k.Word(); got.ToBig().Cmp(wantK) != 0 {
		t.Fatalf("epoch %d ids %v: key sum %x, want %x", epoch, ids, got.ToBig(), wantK)
	}
	if ss.ToBig().Cmp(wantS) != 0 {
		t.Fatalf("epoch %d ids %v: share sum %x, want %x", epoch, ids, ss.ToBig(), wantS)
	}
}

func TestRingDeriversMatchKeyRing(t *testing.T) {
	kr, err := NewKeyRing(9)
	if err != nil {
		t.Fatal(err)
	}
	rd := NewRingDerivers(kr)
	if rd.N() != kr.N() {
		t.Fatalf("RingDerivers covers %d sources, ring has %d", rd.N(), kr.N())
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	for _, epoch := range []Epoch{1, 42, 1 << 33} {
		if got, want := rd.GlobalKey(epoch), kr.EpochGlobalKey(epoch); got != want {
			t.Fatalf("epoch %d: global key mismatch", epoch)
		}
		checkSweep(t, rd.SumRange, kr.Source, epoch, all)
	}
	var blk InnerBlock
	blk.Set(1)
	var k uint256.Accumulator
	var ss uint256.Int
	if err := rd.SumRange(&blk, []int{9}, &k, &ss); err == nil {
		t.Fatal("out-of-range source id accepted")
	}
	if err := rd.SumRange(&blk, []int{-1}, &k, &ss); err == nil {
		t.Fatal("negative source id accepted")
	}
}

// TestSumRange checks a sweep over an unsorted subset, a sweep summed on top
// of another, and the id checks.
func TestSumRange(t *testing.T) {
	kr, err := NewKeyRing(12)
	if err != nil {
		t.Fatal(err)
	}
	rd := NewRingDerivers(kr)
	ids := []int{3, 0, 7, 11}
	checkSweep(t, rd.SumRange, kr.Source, 5, ids)

	// Two chunks summed into one accumulator equal one sweep over both.
	var blk InnerBlock
	blk.Set(5)
	var k uint256.Accumulator
	var ss uint256.Int
	if err := rd.SumRange(&blk, ids[:1], &k, &ss); err != nil {
		t.Fatal(err)
	}
	if err := rd.SumRange(&blk, ids[1:], &k, &ss); err != nil {
		t.Fatal(err)
	}
	wantK, wantS := refSums(kr.Source, 5, ids)
	if got := k.Word(); got.ToBig().Cmp(wantK) != 0 || ss.ToBig().Cmp(wantS) != 0 {
		t.Fatal("chunked sweep differs from one sweep")
	}
	for _, bad := range [][]int{{12}, {-1}, {0, 1 << 30}} {
		if err := rd.SumRange(&blk, bad, &k, &ss); err == nil {
			t.Fatalf("ids %v accepted by SumRange", bad)
		}
	}
}

// sweepTestKeys are 201 keys of 0–200 bytes: every HMAC key regime, keys
// over one block hashed down.
func sweepTestKeys() [][]byte {
	rng := rand.New(rand.NewSource(3))
	keys := make([][]byte, 201)
	for i := range keys {
		keys[i] = make([]byte, i)
		rng.Read(keys[i])
	}
	return keys
}

// TestSumRangeMatchesHMAC compares each engine's sweep with crypto/hmac and
// math/big over the full set, a sparse sorted subset, a single id and odd
// lengths, at the edge epochs, and rejects bad ids and a share sum that
// carries out of 256 bits.
func TestSumRangeMatchesHMAC(t *testing.T) {
	keys := sweepTestKeys()
	all := make([]int, len(keys))
	for i := range all {
		all[i] = i
	}
	var sparse []int
	for i := 0; i < len(keys); i += 7 {
		sparse = append(sparse, i)
	}
	sets := [][]int{all, sparse, {64}, {200}, all[:1], all[:3], all[60:125], all[:199]}
	forEachSweep(t, func(t *testing.T, e namedEngine) {
		sweep := e.sweep(keys)
		for _, epoch := range []Epoch{0, 1, 1 << 63, ^Epoch(0)} {
			for _, ids := range sets {
				checkSweep(t, sweep, keys, epoch, ids)
			}
		}
		var blk InnerBlock
		blk.Set(9)
		var k uint256.Accumulator
		var ss uint256.Int
		for _, bad := range [][]int{{-1}, {len(keys)}, {0, -5}} {
			if err := sweep(&blk, bad, &k, &ss); err == nil {
				t.Fatalf("ids %v accepted", bad)
			}
		}
		ss = uint256.Int{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		if err := sweep(&blk, []int{1}, &k, &ss); err == nil {
			t.Fatal("share sum carry out of 256 bits not reported")
		}
	})
}

// FuzzSumRange compares each engine's sweep with crypto/hmac and math/big
// for keys of 0–200 bytes and any epoch.
func FuzzSumRange(f *testing.F) {
	for _, key := range deriverTestKeys() {
		f.Add(key, uint64(0))
		f.Add(key, ^uint64(0))
	}
	f.Add(bytes.Repeat([]byte{0x36}, 200), uint64(1<<63))
	f.Fuzz(func(t *testing.T, key []byte, epoch uint64) {
		if len(key) > 200 {
			return
		}
		// Three related keys: the input, its reverse and its first half.
		rev := make([]byte, len(key))
		for i, b := range key {
			rev[len(key)-1-i] = b
		}
		keys := [][]byte{key, rev, key[:len(key)/2]}
		for _, e := range engines {
			if e.skip != "" {
				continue
			}
			checkSweep(t, e.sweep(keys), keys, Epoch(epoch), []int{0, 1, 2})
		}
	})
}

// TestRounds256MatchesBlock256 checks the schedule-fed SHA-256 compression
// against block256 on random chaining values over random epochs' inner
// blocks.
func TestRounds256MatchesBlock256(t *testing.T) {
	if !haveSHANI {
		t.Skip(noSHANI)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		epoch := Epoch(rng.Uint64())
		var blk InnerBlock
		blk.Set(epoch)
		var m [hmacBlockSize]byte
		innerBlock(&m, epoch)
		var h [8]uint32
		for j := range h {
			h[j] = rng.Uint32()
		}
		want, got := h, h
		block256(&want, &m)
		rounds256(&got, &blk.w256)
		if got != want {
			t.Fatalf("epoch %d, h %x: rounds256 %x, block256 %x", epoch, h, got, want)
		}
	}
}

// TestRounds1MatchesBlock1 is TestRounds256MatchesBlock256 for SHA-1.
func TestRounds1MatchesBlock1(t *testing.T) {
	if !haveSHANI {
		t.Skip(noSHANI)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		epoch := Epoch(rng.Uint64())
		var blk InnerBlock
		blk.Set(epoch)
		var m [hmacBlockSize]byte
		innerBlock(&m, epoch)
		var h [5]uint32
		for j := range h {
			h[j] = rng.Uint32()
		}
		want, got := h, h
		block1(&want, &m)
		rounds1(&got, &blk.w1)
		if got != want {
			t.Fatalf("epoch %d, h %x: rounds1 %x, block1 %x", epoch, h, got, want)
		}
	}
}

// TestDeriverConcurrent hammers one key from many goroutines through each
// engine and the public Deriver; run with -race this is the data-race check
// for the shared pad state.
func TestDeriverConcurrent(t *testing.T) {
	key := bytes.Repeat([]byte{0x42}, LongTermKeySize)
	hammer := func(t *testing.T, e engine) {
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					epoch := Epoch(g*1000 + i)
					var k [Size256]byte
					var s [Size1]byte
					e.epoch256(epoch, &k)
					e.epoch1(epoch, &s)
					if k != HM256Epoch(key, epoch) || s != HM1Epoch(key, epoch) {
						errs <- "derivation diverged under concurrency"
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		if msg, ok := <-errs; ok {
			t.Fatal(msg)
		}
	}
	forEachEngine(t, func(t *testing.T, newEngine func([]byte) engine) {
		hammer(t, newEngine(key))
	})
	t.Run("deriver", func(t *testing.T) { hammer(t, deriverEngine{NewDeriver(key)}) })
}

// deriverEngine adapts the public Deriver to the engine interface.
type deriverEngine struct{ d *Deriver }

func (e deriverEngine) epoch256(t Epoch, out *[Size256]byte) { *out = e.d.Epoch256(t) }
func (e deriverEngine) epoch1(t Epoch, out *[Size1]byte)     { *out = e.d.Epoch1(t) }

// TestSumRangeConcurrent runs overlapping sweeps of each engine over one key
// set and one shared inner block from several goroutines, as foreground and
// prefetch derivations of the same epoch do; run with -race it checks that
// the pads and the block are read-only during a sweep.
func TestSumRangeConcurrent(t *testing.T) {
	keys := sweepTestKeys()[:32]
	ids := make([]int, len(keys))
	for i := range ids {
		ids[i] = i
	}
	const epoch = 77
	wantK, wantS := refSums(keys, epoch, ids)
	var blk InnerBlock
	blk.Set(epoch)
	forEachSweep(t, func(t *testing.T, e namedEngine) {
		sweep := e.sweep(keys)
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 20; rep++ {
					var k uint256.Accumulator
					var ss uint256.Int
					if err := sweep(&blk, ids, &k, &ss); err != nil {
						errs <- err
						return
					}
					if got := k.Word(); got.ToBig().Cmp(wantK) != 0 || ss.ToBig().Cmp(wantS) != 0 {
						errs <- errors.New("concurrent SumRange diverged from crypto/hmac")
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err, ok := <-errs; ok {
			t.Fatal(err)
		}
	})
}

// TestDeriverAllocs is the allocation-regression gate for epoch derivation:
// after construction, serving K_t / k_{i,t} / ss_{i,t} must not touch the
// heap, through either engine or the public API.
func TestDeriverAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	key := bytes.Repeat([]byte{0x17}, LongTermKeySize)
	d := NewDeriver(key)
	var epoch Epoch
	var sink byte
	if n := testing.AllocsPerRun(200, func() {
		epoch++
		k := d.Epoch256(epoch)
		s := d.Epoch1(epoch)
		sink ^= k[0] ^ s[0]
	}); n != 0 {
		t.Fatalf("Deriver epoch derivation allocated %.1f times per run, want 0", n)
	}

	kr, err := NewKeyRing(16)
	if err != nil {
		t.Fatal(err)
	}
	rd := NewRingDerivers(kr)
	ids := []int{0, 3, 5, 9, 15}
	var blk InnerBlock
	var k uint256.Accumulator
	var ss uint256.Int
	if n := testing.AllocsPerRun(200, func() {
		epoch++
		blk.Set(epoch)
		if err := rd.SumRange(&blk, ids, &k, &ss); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SumRange allocated %.1f times per run, want 0", n)
	}

	forEachEngine(t, func(t *testing.T, newEngine func([]byte) engine) {
		e := newEngine(key)
		var k [Size256]byte
		var s [Size1]byte
		if n := testing.AllocsPerRun(200, func() {
			epoch++
			e.epoch256(epoch, &k)
			e.epoch1(epoch, &s)
		}); n != 0 {
			t.Fatalf("engine derivation allocated %.1f times per run, want 0", n)
		}
	})
	_ = sink
}

// TestSumRangeAllocs is the allocation gate for each engine's sweep: summing
// an epoch's keys must not touch the heap.
func TestSumRangeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	keys := sweepTestKeys()[:16]
	ids := []int{0, 3, 5, 9, 15}
	forEachSweep(t, func(t *testing.T, e namedEngine) {
		sweep := e.sweep(keys)
		var blk InnerBlock
		var k uint256.Accumulator
		var ss uint256.Int
		var epoch Epoch
		if n := testing.AllocsPerRun(200, func() {
			epoch++
			blk.Set(epoch)
			if err := sweep(&blk, ids, &k, &ss); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("sweep allocated %.1f times per run, want 0", n)
		}
	})
}
