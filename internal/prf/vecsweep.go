package prf

import (
	"math"
	"math/bits"
	"unsafe"

	"github.com/sies/sies/internal/uint256"
)

// This file is the vector engine's Go half. On CPUs with AVX-512F the
// querier's sweep derives SweepLanes keys per call of the hmac16 kernel, one
// key per 32-bit lane, and gathers each lane's chaining values straight from
// the SHA-NI engine's []keyPads, so the pads keep their one layout.

// SweepLanes is the number of keys the vector engine derives per kernel
// call. A SumRange chunk whose length is a multiple of it leaves no lane
// idle.
const SweepLanes = 16

const (
	// padWords is keyPads' size in 32-bit words, the stride of the kernel's
	// gather indices.
	padWords = int(unsafe.Sizeof(keyPads{}) / 4)
	// maxVecKeys bounds the pads the vector engine sweeps: every gather
	// index id·padWords, id < maxVecKeys, fits in the kernel's int32 lanes.
	maxVecKeys = math.MaxInt32/padWords + 1
)

// vecSweep reports whether SumRange over n pads runs the vector engine.
func vecSweep(n int) bool { return haveAVX512 && n <= maxVecKeys }

// sumRangeVec is the vector engine's RingDerivers.SumRange over pads, which
// hold at most maxVecKeys keys. Each group of up to SweepLanes ids passes the
// range check before the kernel gathers any pad. A short last group repeats
// its first id in the spare lanes and drops their digests. A share sum that
// overflows fails the group in which it does.
func sumRangeVec(pads []keyPads, blk *InnerBlock, ids []int, k *uint256.Accumulator, ss *uint256.Int) error {
	var idx [SweepLanes]int32
	var d [13][SweepLanes]uint32
	for len(ids) > 0 {
		grp := ids[:min(len(ids), SweepLanes)]
		ids = ids[len(grp):]
		for l, id := range grp {
			if uint(id) >= uint(len(pads)) {
				return idRangeError(id, len(pads))
			}
			idx[l] = int32(id * padWords)
		}
		for l := len(grp); l < SweepLanes; l++ {
			idx[l] = idx[0]
		}
		hmac16(&pads[0], blk, &idx, &d)
		// The group's sums stay in registers: HM256 words as four limbs
		// plus their carries, HM1 words below 2^164.
		var k0, k1, k2, k3, k4, s0, s1, s2 uint64
		for l := range grp {
			var c uint64
			k0, c = bits.Add64(k0, uint64(d[6][l])<<32|uint64(d[7][l]), 0)
			k1, c = bits.Add64(k1, uint64(d[4][l])<<32|uint64(d[5][l]), c)
			k2, c = bits.Add64(k2, uint64(d[2][l])<<32|uint64(d[3][l]), c)
			k3, c = bits.Add64(k3, uint64(d[0][l])<<32|uint64(d[1][l]), c)
			k4 += c
			s0, c = bits.Add64(s0, uint64(d[11][l])<<32|uint64(d[12][l]), 0)
			s1, c = bits.Add64(s1, uint64(d[9][l])<<32|uint64(d[10][l]), c)
			s2 += uint64(d[8][l]) + c
		}
		k.AddWord(uint256.Word512{k0, k1, k2, k3, k4})
		if err := addShare(ss, s0, s1, s2); err != nil {
			return err
		}
	}
	return nil
}
