package prf

// haveSHANI reports whether this CPU runs the SHA-NI engine. CPUID must
// report the SHA extensions plus SSSE3 (PSHUFB, PALIGNR) and SSE4.1
// (PBLENDW, PINSRD, PEXTRD): every instruction the two compressions use.
var haveSHANI = detectSHANI()

func detectSHANI() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		ssse3 = 1 << 9  // leaf 1, ECX
		sse41 = 1 << 19 // leaf 1, ECX
		sha   = 1 << 29 // leaf 7, EBX
	)
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0
}

// haveAVX512 reports whether SumRange runs the vector engine: the SHA-NI
// engine's pads plus AVX-512F, with XGETBV showing that the OS saves the
// opmask registers and all 32 ZMM registers across context switches.
var haveAVX512 = haveSHANI && detectAVX512()

func detectAVX512() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		osxsave = 1 << 27 // leaf 1, ECX: XGETBV is enabled
		avx512f = 1 << 16 // leaf 7, EBX
		// XCR0: SSE, AVX, opmask, ZMM0–15 upper halves, ZMM16–31.
		zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	)
	if ecx1&osxsave == 0 || ebx7&avx512f == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&zmmState == zmmState
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the state components the OS saves.
func xgetbv() (eax, edx uint32)

// block256 runs the SHA-256 compression function over one block, updating
// the chaining value h in place.
//
//go:noescape
func block256(h *[8]uint32, p *[64]byte)

// block1 runs the SHA-1 compression function over one block, updating the
// chaining value h in place.
//
//go:noescape
func block1(h *[5]uint32, p *[64]byte)

// rounds256 is block256 over a block whose message schedule W[0..63] is
// already expanded: it runs the 64 rounds alone.
//
//go:noescape
func rounds256(h *[8]uint32, w *[64]uint32)

// rounds1 is block1 over a block whose message schedule W[0..79] is already
// expanded in SHA1NEXTE's lane order (InnerBlock.w1): it runs the 80 rounds
// alone.
//
//go:noescape
func rounds1(h *[5]uint32, w *[80]uint32)

// hmac16 derives HM256 and HM1 of blk's epoch for sixteen keys at once, one
// per 32-bit lane: lane l reads the pads idx[l] 32-bit words past pads, and
// writes digest word j to out[j][l], HM256's eight words first, then HM1's
// five. Every index must address a pad of the slice pads points into.
//
//go:noescape
func hmac16(pads *keyPads, blk *InnerBlock, idx *[SweepLanes]int32, out *[13][SweepLanes]uint32)
