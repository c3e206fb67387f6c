package prf

import (
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/sies/sies/internal/uint256"
)

// TestHMAC16MatchesHMAC checks every lane of the vector kernel against
// crypto/hmac for random keys of 0–150 bytes, random epochs and random,
// unsorted lane ids with repeats.
func TestHMAC16MatchesHMAC(t *testing.T) {
	if !haveAVX512 {
		t.Skip(noAVX512)
	}
	rng := rand.New(rand.NewSource(6))
	keys := make([][]byte, 50)
	for i := range keys {
		keys[i] = make([]byte, rng.Intn(151))
		rng.Read(keys[i])
	}
	pads := testPads(keys)
	for rep := 0; rep < 200; rep++ {
		epoch := Epoch(rng.Uint64())
		var blk InnerBlock
		blk.Set(epoch)
		var ids [SweepLanes]int
		var idx [SweepLanes]int32
		for l := range ids {
			ids[l] = rng.Intn(len(keys))
			idx[l] = int32(ids[l] * padWords)
		}
		var out [13][SweepLanes]uint32
		hmac16(&pads[0], &blk, &idx, &out)
		msg := epoch.Bytes()
		for l, id := range ids {
			m := hmac.New(sha256.New, keys[id])
			m.Write(msg[:])
			digests := m.Sum(nil)
			m = hmac.New(sha1.New, keys[id])
			m.Write(msg[:])
			digests = m.Sum(digests) // HM256 ‖ HM1: the kernel's 13 rows
			for j := range out {
				if got, want := out[j][l], binary.BigEndian.Uint32(digests[4*j:]); got != want {
					t.Fatalf("epoch %d lane %d (key %d) word %d: %08x, want %08x", epoch, l, id, j, got, want)
				}
			}
		}
	}
}

// TestSumRangeVecGroups checks the vector sweep's grouping against
// crypto/hmac: tail groups of 1–15 ids on their own and after full groups,
// and unsorted, sparse and repeated ids.
func TestSumRangeVecGroups(t *testing.T) {
	if !haveAVX512 {
		t.Skip(noAVX512)
	}
	keys := sweepTestKeys()[:100]
	pads := testPads(keys)
	sweep := func(blk *InnerBlock, ids []int, k *uint256.Accumulator, ss *uint256.Int) error {
		return sumRangeVec(pads, blk, ids, k, ss)
	}
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 3*SweepLanes+1; n++ {
		ids := rng.Perm(len(keys))[:n]
		checkSweep(t, sweep, keys, Epoch(rng.Uint64()), ids)
	}
	checkSweep(t, sweep, keys, 3, []int{99, 0, 99, 50, 1, 0, 98, 13, 99, 2, 7, 7, 64, 31, 30, 29, 5})
	checkSweep(t, sweep, keys, 4, []int{0, 11, 22, 33, 44, 55, 66, 77, 88, 99})
}

// TestSumRangeVecRefusesBadIDs checks that an out-of-range id fails its
// group before the kernel gathers any pad: an index that far past the pads
// would fault if it were gathered, and no lane of the failing group reaches
// the sums. Groups before it are summed.
func TestSumRangeVecRefusesBadIDs(t *testing.T) {
	if !haveAVX512 {
		t.Skip(noAVX512)
	}
	keys := sweepTestKeys()[:20]
	pads := testPads(keys)
	far := len(pads) + 1<<26 // id·padWords still fits in int32
	good := make([]int, SweepLanes-1)
	for i := range good {
		good[i] = i
	}
	var blk InnerBlock
	blk.Set(11)
	for _, bad := range []int{-1, len(pads), far, -far} {
		var k uint256.Accumulator
		var ss uint256.Int
		if err := sumRangeVec(pads, &blk, append(good[:len(good):len(good)], bad), &k, &ss); err == nil {
			t.Fatalf("id %d accepted", bad)
		}
		if !k.Word().IsZero() || !ss.IsZero() {
			t.Fatalf("id %d: the failing group reached the sums", bad)
		}
	}
	// One full good group, then a group whose last id is bad.
	ids := make([]int, 2*SweepLanes)
	for i := range ids {
		ids[i] = i % len(pads)
	}
	ids[len(ids)-1] = far
	var k uint256.Accumulator
	var ss uint256.Int
	if err := sumRangeVec(pads, &blk, ids, &k, &ss); err == nil {
		t.Fatal("bad id in the second group accepted")
	}
	wantK, wantS := refSums(keys, 11, ids[:SweepLanes])
	if got := k.Word(); got.ToBig().Cmp(wantK) != 0 || ss.ToBig().Cmp(wantS) != 0 {
		t.Fatal("sums after a failed second group differ from the first group's")
	}
}

// TestVecGatherIndexBound checks that the kernel's int32 gather indices
// cannot overflow: id·padWords fits for every id below maxVecKeys, the bound
// is tight, and SumRange leaves larger key sets to the SHA-NI sweep.
func TestVecGatherIndexBound(t *testing.T) {
	if padWords != 26 {
		t.Fatalf("keyPads is %d words, want 26", padWords)
	}
	if last := int64(maxVecKeys-1) * int64(padWords); last > math.MaxInt32 {
		t.Fatalf("gather index %d of the last key overflows int32", last)
	}
	if next := int64(maxVecKeys) * int64(padWords); next <= math.MaxInt32 {
		t.Fatalf("bound is not tight: index %d still fits int32", next)
	}
	if vecSweep(maxVecKeys) != haveAVX512 {
		t.Fatalf("vecSweep(%d) = %v on a CPU with AVX-512 %v", maxVecKeys, !haveAVX512, haveAVX512)
	}
	if vecSweep(maxVecKeys + 1) {
		t.Fatalf("vecSweep(%d) chose the vector engine past the index bound", maxVecKeys+1)
	}
}
