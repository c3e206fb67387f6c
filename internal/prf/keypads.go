package prf

import (
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"math/bits"

	"github.com/sies/sies/internal/uint256"
)

// This file is the SHA-NI engine's Go half: the per-key state, the fixed
// message blocks around the assembly compressions and the querier's summing
// sweep.
//
// HMAC(k, m) = H((k⊕opad) ‖ H((k⊕ipad) ‖ m)), and each pad fills exactly one
// 64-byte block, so absorbing a pad is one compression whose output — the
// chaining value — depends on the key alone. With the 8-byte epoch as m, the
// rest of each hash fits one more block: the inner block is
// t ‖ 0x80 ‖ 0… ‖ bitlen(64+8) and the outer block is
// inner digest ‖ 0x80 ‖ 0… ‖ bitlen(64+digest size), the lengths counting the
// pad block already absorbed. A derivation is therefore two single-block
// compressions per hash, with no hash object, no snapshot restore and
// nothing on the heap.

// keyPads is one key's SHA-NI engine state: the SHA-256 and SHA-1 chaining
// values after absorbing key⊕ipad and key⊕opad. It is 104 bytes with no
// pointers and never changes after construction, so any number of
// goroutines may derive through it at once.
type keyPads struct {
	in256, out256 [8]uint32
	in1, out1     [5]uint32
}

// Initial hash values of SHA-256 (FIPS 180-4 §5.3.3) and SHA-1 (§5.3.1).
var (
	iv256 = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
	iv1   = [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
)

// newKeyPads absorbs key's pads into both hashes. Keys longer than a block
// are first hashed down by each hash separately, as RFC 2104 says.
func newKeyPads(key []byte) keyPads {
	var p keyPads
	var pad [hmacBlockSize]byte
	k := key
	if len(key) > hmacBlockSize {
		d := sha256.Sum256(key)
		k = d[:]
	}
	p.in256, p.out256 = iv256, iv256
	fillPad(&pad, k, 0x36)
	block256(&p.in256, &pad)
	fillPad(&pad, k, 0x5c)
	block256(&p.out256, &pad)

	k = key
	if len(key) > hmacBlockSize {
		d := sha1.Sum(key)
		k = d[:]
	}
	p.in1, p.out1 = iv1, iv1
	fillPad(&pad, k, 0x36)
	block1(&p.in1, &pad)
	fillPad(&pad, k, 0x5c)
	block1(&p.out1, &pad)
	return p
}

// fillPad sets pad to key, zero-extended to a block, XORed with b.
func fillPad(pad *[hmacBlockSize]byte, key []byte, b byte) {
	*pad = [hmacBlockSize]byte{}
	copy(pad[:], key)
	for i := range pad {
		pad[i] ^= b
	}
}

// innerBlock writes the padded inner message block for epoch t. Bytes 9–55
// must already be zero.
func innerBlock(b *[hmacBlockSize]byte, t Epoch) {
	binary.BigEndian.PutUint64(b[:8], uint64(t))
	b[8] = 0x80
	binary.BigEndian.PutUint64(b[56:], (hmacBlockSize+8)*8)
}

// outerBlock turns an inner block into the padded outer block over digest
// h. The digest covers the inner block's epoch and its 0x80 marker, and the
// bytes between the new marker and the length are still zero.
func outerBlock(b *[hmacBlockSize]byte, h []uint32) {
	for i, v := range h {
		binary.BigEndian.PutUint32(b[4*i:], v)
	}
	b[4*len(h)] = 0x80
	binary.BigEndian.PutUint64(b[56:], uint64(hmacBlockSize+4*len(h))*8)
}

// epoch256 computes HM256(key, t) into out.
func (p *keyPads) epoch256(t Epoch, out *[Size256]byte) {
	var b [hmacBlockSize]byte
	innerBlock(&b, t)
	h := p.in256
	block256(&h, &b)
	outerBlock(&b, h[:])
	h = p.out256
	block256(&h, &b)
	for i, v := range h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
}

// epoch1 computes HM1(key, t) into out.
func (p *keyPads) epoch1(t Epoch, out *[Size1]byte) {
	var b [hmacBlockSize]byte
	innerBlock(&b, t)
	h := p.in1
	block1(&h, &b)
	outerBlock(&b, h[:])
	h = p.out1
	block1(&h, &b)
	for i, v := range h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
}

// InnerBlock is the inner HMAC block of one epoch, t ‖ 0x80 ‖ 0… ‖
// bitlen(64+8), with its SHA-256 and SHA-1 message schedules expanded. Every
// key hashes this same block at epoch t, so a sweep builds it once and each
// key's inner compressions run the rounds alone. It holds no pointers and is
// read-only once set, so concurrent sweeps may share it.
type InnerBlock struct {
	t     Epoch
	w256  [64]uint32 // SHA-256 W[0..63]
	w1    [80]uint32 // SHA-1 W[0..79], each row of four first word last
	kw256 [64]uint32 // SHA-256 K[t]+W[t], the vector engine's form
	kw1   [80]uint32 // SHA-1 K[t]+W[t], in round order
}

// Round constants of SHA-256 (FIPS 180-4 §4.2.2) and SHA-1 (§4.2.1, one per
// twenty rounds). The vector kernel reads both for its outer rounds.
var (
	sha256K = [64]uint32{
		0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
		0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
		0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
		0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
		0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
		0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
		0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
		0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
	}
	sha1K = [4]uint32{0x5a827999, 0x6ed9eba1, 0x8f1bbcdc, 0xca62c1d6}
)

// Set makes b the inner block of epoch t. The stdlib engine reads only the
// epoch.
func (b *InnerBlock) Set(t Epoch) {
	var m [hmacBlockSize]byte
	innerBlock(&m, t)
	b.t = t
	var w [80]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(m[4*i:])
	}
	// SHA-256 message schedule, FIPS 180-4 §6.2.2.
	copy(b.w256[:16], w[:16])
	for i := 16; i < 64; i++ {
		x, y := b.w256[i-15], b.w256[i-2]
		s0 := bits.RotateLeft32(x, -7) ^ bits.RotateLeft32(x, -18) ^ x>>3
		s1 := bits.RotateLeft32(y, -17) ^ bits.RotateLeft32(y, -19) ^ y>>10
		b.w256[i] = s1 + b.w256[i-7] + s0 + b.w256[i-16]
	}
	for i, v := range b.w256 {
		b.kw256[i] = sha256K[i] + v
	}
	// SHA-1 message schedule, §6.1.2. SHA1NEXTE and SHA1RNDS4 take a row's
	// first word in the highest lane, so each row is stored reversed.
	for i := 16; i < 80; i++ {
		w[i] = bits.RotateLeft32(w[i-3]^w[i-8]^w[i-14]^w[i-16], 1)
	}
	for i, v := range w {
		b.w1[i^3] = v
		b.kw1[i] = sha1K[i/20] + v
	}
}

// sumRange is the SHA-NI engine's RingDerivers.SumRange over pads. A key
// issues its four compressions inner-256, inner-1, outer-256, outer-1: the
// SHA-256 and SHA-1 chains are independent, so the out-of-order core runs
// one while the other waits on its round latency.
func sumRange(pads []keyPads, blk *InnerBlock, ids []int, k *uint256.Accumulator, ss *uint256.Int) error {
	var o256, o1 [hmacBlockSize]byte
	for _, id := range ids {
		if uint(id) >= uint(len(pads)) {
			return idRangeError(id, len(pads))
		}
		p := &pads[id]
		h256, h1 := p.in256, p.in1
		rounds256(&h256, &blk.w256)
		rounds1(&h1, &blk.w1)
		outerBlock(&o256, h256[:])
		h256 = p.out256
		block256(&h256, &o256)
		outerBlock(&o1, h1[:])
		h1 = p.out1
		block1(&h1, &o1)

		k.Add(uint256.Int{
			uint64(h256[6])<<32 | uint64(h256[7]),
			uint64(h256[4])<<32 | uint64(h256[5]),
			uint64(h256[2])<<32 | uint64(h256[3]),
			uint64(h256[0])<<32 | uint64(h256[1]),
		})
		err := addShare(ss, uint64(h1[3])<<32|uint64(h1[4]), uint64(h1[1])<<32|uint64(h1[2]), uint64(h1[0]))
		if err != nil {
			return err
		}
	}
	return nil
}
