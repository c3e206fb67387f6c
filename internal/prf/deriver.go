package prf

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/sies/sies/internal/uint256"
)

// This file is the reusable HMAC derivation API. A long-term key's HMAC pads
// never change, so the key schedule — hashing key⊕ipad and key⊕opad — is paid
// once per key, and every per-epoch derivation afterwards is allocation-free.
// Three engines implement it, and CPUID alone picks them for the process:
//
//   - the SHA-NI engine (keypads.go and the amd64 assembly) keeps each key's
//     four chaining values in 104 pointer-free, immutable bytes and derives
//     HM256 and HM1 as two single-block compressions each, the inner ones
//     over an epoch's message schedules expanded once for every key;
//   - the vector engine (vecsweep.go, hmac16_amd64.s) runs the querier's
//     sweep over the same pads sixteen keys at a time in AVX-512, where the
//     CPU and the OS support it; single-key derivation stays on SHA-NI;
//   - the stdlib engine (stdpads.go) restores marshaled crypto/sha256 and
//     crypto/sha1 states under a per-key mutex, on every other CPU.
//
// All three are bit-identical to crypto/hmac.

// hmacBlockSize is the input block size shared by SHA-1 and SHA-256 (64
// bytes), over which the HMAC pads are formed.
const hmacBlockSize = 64

// Engine names the derivation engines this process runs: "sha-ni+avx512"
// (single keys on SHA-NI, the querier's sweep in AVX-512), "sha-ni" or
// "stdlib".
func Engine() string {
	switch {
	case haveAVX512:
		return "sha-ni+avx512"
	case haveSHANI:
		return "sha-ni"
	}
	return "stdlib"
}

// Deriver serves the per-epoch PRFs of one long-term key with the HMAC key
// schedule paid once at construction: Epoch256 is HM256(key, t) and Epoch1
// is HM1(key, t), both allocation-free per call. It is safe for concurrent
// use.
type Deriver struct {
	pads keyPads  // SHA-NI engine
	std  *stdPads // stdlib engine; nil on SHA-NI CPUs
}

// NewDeriver precomputes both HMAC key schedules for key.
func NewDeriver(key []byte) *Deriver {
	if haveSHANI {
		return &Deriver{pads: newKeyPads(key)}
	}
	return &Deriver{std: newStdPads(key)}
}

// Epoch256 computes HM256(key, t) — the key-derivation PRF — reusing the
// precomputed pads.
func (d *Deriver) Epoch256(t Epoch) (out [Size256]byte) {
	if haveSHANI {
		d.pads.epoch256(t, &out)
	} else {
		d.std.epoch256(t, &out)
	}
	return out
}

// Epoch1 computes HM1(key, t) — the secret-share PRF — reusing the
// precomputed pads.
func (d *Deriver) Epoch1(t Epoch) (out [Size1]byte) {
	if haveSHANI {
		d.pads.epoch1(t, &out)
	} else {
		d.std.epoch1(t, &out)
	}
	return out
}

// RingDerivers is the querier-side derivation engine: the pads of every key
// of a KeyRing, built once so every epoch's Θ(N) fan-out skips the HMAC key
// schedules entirely. On SHA-NI CPUs the source pads are one flat,
// pointer-free slice, which the vector engine gathers from directly.
// Distinct sources are independent, so the schedule engine's workers derive
// disjoint id chunks concurrently with no contention.
type RingDerivers struct {
	global *Deriver
	pads   []keyPads  // SHA-NI engine, indexed by source id
	std    []*stdPads // stdlib engine, indexed by source id
}

// NewRingDerivers precomputes the pads for every key in the ring.
func NewRingDerivers(kr *KeyRing) *RingDerivers {
	rd := &RingDerivers{global: NewDeriver(kr.Global)}
	if haveSHANI {
		rd.pads = make([]keyPads, kr.N())
		for i := range rd.pads {
			rd.pads[i] = newKeyPads(kr.Source[i])
		}
	} else {
		rd.std = make([]*stdPads, kr.N())
		for i := range rd.std {
			rd.std[i] = newStdPads(kr.Source[i])
		}
	}
	return rd
}

// N returns the number of source keys.
func (rd *RingDerivers) N() int {
	if haveSHANI {
		return len(rd.pads)
	}
	return len(rd.std)
}

// GlobalKey derives K_t through the cached global-key pads.
func (rd *RingDerivers) GlobalKey(t Epoch) [Size256]byte {
	return rd.global.Epoch256(t)
}

// SumRange is the batch API for the schedule engine's worker pool: for
// every id in ids it adds k_{i,t} = HM256(k_i, t) to k and
// ss_{i,t} = HM1(k_i, t) to ss, where t is blk's epoch, without allocating.
// An id outside [0, N) or a share sum that overflows 256 bits aborts the
// sweep and leaves k and ss partly summed. Calls may run concurrently over
// any ids and one shared blk, each with its own k and ss. On the vector
// engine, chunks of a multiple of SweepLanes ids keep every lane busy.
func (rd *RingDerivers) SumRange(blk *InnerBlock, ids []int, k *uint256.Accumulator, ss *uint256.Int) error {
	switch {
	case vecSweep(len(rd.pads)):
		return sumRangeVec(rd.pads, blk, ids, k, ss)
	case haveSHANI:
		return sumRange(rd.pads, blk, ids, k, ss)
	}
	return sumRangeStd(rd.std, blk.t, ids, k, ss)
}

func idRangeError(id, n int) error {
	return fmt.Errorf("prf: source id %d out of range [0,%d)", id, n)
}

var errShareOverflow = errors.New("prf: share sum overflowed 256 bits")

// addShare adds a share below 2^192, given as its three low limbs, to the
// share sum, failing on a carry out of 256 bits.
func addShare(ss *uint256.Int, lo, mid, hi uint64) error {
	var c uint64
	ss[0], c = bits.Add64(ss[0], lo, 0)
	ss[1], c = bits.Add64(ss[1], mid, c)
	ss[2], c = bits.Add64(ss[2], hi, c)
	ss[3], c = bits.Add64(ss[3], 0, c)
	if c != 0 {
		return errShareOverflow
	}
	return nil
}
