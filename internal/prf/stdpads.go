package prf

import (
	"crypto/sha1"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"github.com/sies/sies/internal/uint256"
)

// This file is the stdlib engine, the derivation path on every CPU without
// SHA-NI.
//
// HM1 and HM256 compute HMAC(key, t) with hmac.New on every call, which
// re-runs the underlying hash over both 64-byte key pads — the key schedule —
// and allocates the MAC object, the pad buffers and the digest slice each
// time. For a fixed long-term key the pads never change, so stdPads performs
// the key schedule exactly once at construction: it absorbs key⊕ipad and
// key⊕opad into fresh hash states and snapshots them via the hashes'
// BinaryMarshaler encoding. Every subsequent derivation restores a snapshot
// (a fixed-size copy, no hashing, no allocation), feeds the 8-byte epoch
// message and finalises into caller-independent buffers — zero heap
// allocations per epoch.

// padState is one precomputed HMAC over a fixed key: snapshots of the inner
// and outer hash states taken after the pads were absorbed, plus reusable
// output buffers sized for the larger digest.
type padState struct {
	h       hash.Hash // running state, restored from a snapshot per use
	inner   []byte    // marshaled state after Write(key ⊕ ipad)
	outer   []byte    // marshaled state after Write(key ⊕ opad)
	scratch [Size256]byte
	out     [Size256]byte
}

func newPadState(newHash func() hash.Hash, key []byte) padState {
	h := newHash()
	if len(key) > hmacBlockSize {
		// RFC 2104: long keys are first hashed down.
		h.Write(key)
		key = h.Sum(nil)
		h.Reset()
	}
	var pad [hmacBlockSize]byte
	copy(pad[:], key)
	for i := range pad {
		pad[i] ^= 0x36
	}
	h.Write(pad[:])
	inner := marshalHash(h)
	h.Reset()
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	h.Write(pad[:])
	outer := marshalHash(h)
	h.Reset()
	return padState{h: h, inner: inner, outer: outer}
}

// mac computes HMAC(key, msg) into s.out. msg must point into heap-owned
// memory (the stdPads epoch buffer) so no per-call allocation occurs when it
// crosses the hash.Hash interface.
func (s *padState) mac(msg []byte) {
	unmarshalHash(s.h, s.inner)
	s.h.Write(msg)
	digest := s.h.Sum(s.scratch[:0])
	unmarshalHash(s.h, s.outer)
	s.h.Write(digest)
	s.h.Sum(s.out[:0])
}

func marshalHash(h hash.Hash) []byte {
	m, ok := h.(encoding.BinaryMarshaler)
	if !ok {
		panic("prf: hash does not support state snapshots")
	}
	b, err := m.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("prf: snapshotting hash state: %v", err))
	}
	return b
}

func unmarshalHash(h hash.Hash, state []byte) {
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic(fmt.Sprintf("prf: restoring hash state: %v", err))
	}
}

// stdPads is the stdlib engine's state for one key. The restored hash
// states and output buffers are mutable, so derivations over the same key
// serialise on mu; the schedule's workers never contend on it because each
// owns a disjoint range of source ids.
type stdPads struct {
	mu   sync.Mutex
	s256 padState
	s1   padState
	ebuf [8]byte
}

func newStdPads(key []byte) *stdPads {
	return &stdPads{
		s256: newPadState(sha256.New, key),
		s1:   newPadState(sha1.New, key),
	}
}

// epoch256 computes HM256(key, t) into out.
func (d *stdPads) epoch256(t Epoch, out *[Size256]byte) {
	d.mu.Lock()
	binary.BigEndian.PutUint64(d.ebuf[:], uint64(t))
	d.s256.mac(d.ebuf[:])
	*out = d.s256.out
	d.mu.Unlock()
}

// epoch1 computes HM1(key, t) into out.
func (d *stdPads) epoch1(t Epoch, out *[Size1]byte) {
	d.mu.Lock()
	binary.BigEndian.PutUint64(d.ebuf[:], uint64(t))
	d.s1.mac(d.ebuf[:])
	copy(out[:], d.s1.out[:Size1])
	d.mu.Unlock()
}

// derive computes HM256(key, t) and HM1(key, t) under one lock acquisition.
func (d *stdPads) derive(t Epoch, kit *[Size256]byte, ss *[Size1]byte) {
	d.mu.Lock()
	binary.BigEndian.PutUint64(d.ebuf[:], uint64(t))
	d.s256.mac(d.ebuf[:])
	*kit = d.s256.out
	d.s1.mac(d.ebuf[:])
	copy(ss[:], d.s1.out[:Size1])
	d.mu.Unlock()
}

// sumRangeStd is the stdlib engine's RingDerivers.SumRange over std.
func sumRangeStd(std []*stdPads, t Epoch, ids []int, k *uint256.Accumulator, ss *uint256.Int) error {
	var kit [Size256]byte
	var s [Size1]byte
	be := binary.BigEndian
	for _, id := range ids {
		if uint(id) >= uint(len(std)) {
			return idRangeError(id, len(std))
		}
		std[id].derive(t, &kit, &s)
		k.Add(uint256.Int{be.Uint64(kit[24:]), be.Uint64(kit[16:]), be.Uint64(kit[8:]), be.Uint64(kit[:])})
		if err := addShare(ss, be.Uint64(s[12:]), be.Uint64(s[4:]), uint64(be.Uint32(s[:]))); err != nil {
			return err
		}
	}
	return nil
}
