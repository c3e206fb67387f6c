package prf

import (
	"bytes"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/sies/sies/internal/race"
)

// engine is what both derivation engines serve for one key. Tests call each
// engine directly, so the stdlib engine is covered on SHA-NI CPUs too.
type engine interface {
	epoch256(t Epoch, out *[Size256]byte)
	epoch1(t Epoch, out *[Size1]byte)
}

type namedEngine struct {
	name string
	new  func(key []byte) engine
}

var engines = []namedEngine{
	{"stdlib", func(key []byte) engine { return newStdPads(key) }},
	{"sha-ni", func(key []byte) engine { p := newKeyPads(key); return &p }},
}

// forEachEngine runs f as one subtest per engine, skipping the SHA-NI engine
// when CPUID lacks it.
func forEachEngine(t *testing.T, f func(t *testing.T, newEngine func(key []byte) engine)) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			if e.name == "sha-ni" && !haveSHANI {
				t.Skip("CPUID reports no SHA-NI")
			}
			f(t, e.new)
		})
	}
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
			if ne.name == "sha-ni" && !haveSHANI {
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
		t.Skip("CPUID reports no SHA-NI")
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
		t.Skip("CPUID reports no SHA-NI")
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
		err := rd.DeriveRange(epoch, all, func(i int, kit [Size256]byte, ss [Size1]byte) error {
			if want, _ := kr.EpochSourceKey(i, epoch); kit != want {
				t.Fatalf("epoch %d source %d: key mismatch", epoch, i)
			}
			if want, _ := kr.EpochShare(i, epoch); ss != want {
				t.Fatalf("epoch %d source %d: share mismatch", epoch, i)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	nop := func(int, [Size256]byte, [Size1]byte) error { return nil }
	if err := rd.DeriveRange(1, []int{9}, nop); err == nil {
		t.Fatal("out-of-range source id accepted")
	}
	if err := rd.DeriveRange(1, []int{-1}, nop); err == nil {
		t.Fatal("negative source id accepted")
	}
}

func TestDeriveRange(t *testing.T) {
	kr, err := NewKeyRing(12)
	if err != nil {
		t.Fatal(err)
	}
	rd := NewRingDerivers(kr)
	ids := []int{3, 0, 7, 11}
	var seen []int
	err = rd.DeriveRange(5, ids, func(id int, kit [Size256]byte, ss [Size1]byte) error {
		seen = append(seen, id)
		wantK, _ := kr.EpochSourceKey(id, 5)
		wantS, _ := kr.EpochShare(id, 5)
		if kit != wantK || ss != wantS {
			t.Fatalf("source %d: batch derivation mismatch", id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(ids) {
		t.Fatalf("visited %v, want %v", seen, ids)
	}
	for i, id := range ids {
		if seen[i] != id {
			t.Fatalf("visit order %v, want %v", seen, ids)
		}
	}
	if err := rd.DeriveRange(5, []int{12}, func(int, [Size256]byte, [Size1]byte) error { return nil }); err == nil {
		t.Fatal("out-of-range id accepted by DeriveRange")
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

// TestDeriveRangeConcurrent runs overlapping DeriveRange sweeps over one
// ring from several goroutines, as foreground and prefetch derivations of
// the same epoch do; run with -race it checks that the ring's shared pads
// are read-only during a sweep.
func TestDeriveRangeConcurrent(t *testing.T) {
	kr, err := NewKeyRing(32)
	if err != nil {
		t.Fatal(err)
	}
	rd := NewRingDerivers(kr)
	ids := make([]int, kr.N())
	for i := range ids {
		ids[i] = i
	}
	const epoch = 77
	wantK := make([][Size256]byte, kr.N())
	wantS := make([][Size1]byte, kr.N())
	for i := range ids {
		wantK[i], _ = kr.EpochSourceKey(i, epoch)
		wantS[i], _ = kr.EpochShare(i, epoch)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				err := rd.DeriveRange(epoch, ids, func(id int, kit [Size256]byte, ss [Size1]byte) error {
					if kit != wantK[id] || ss != wantS[id] {
						return errors.New("concurrent DeriveRange diverged from KeyRing")
					}
					return nil
				})
				if err != nil {
					errs <- err
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
	visit := func(id int, kit [Size256]byte, ss [Size1]byte) error {
		sink ^= kit[0] ^ ss[0]
		return nil
	}
	if n := testing.AllocsPerRun(200, func() {
		epoch++
		if err := rd.DeriveRange(epoch, ids, visit); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DeriveRange allocated %.1f times per run, want 0", n)
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
