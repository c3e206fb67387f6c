package prf

import (
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
)

// This file is the SHA-NI engine's Go half: the per-key state and the fixed
// message blocks around the two assembly compressions.
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
