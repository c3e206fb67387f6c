//go:build !amd64

package prf

// haveSHANI is false off amd64: the stdlib engine is the only path there.
const haveSHANI = false

// haveAVX512 is false off amd64: the vector engine is amd64 assembly.
const haveAVX512 = false

func block256(*[8]uint32, *[64]byte) { panic("prf: SHA-NI compression without SHA-NI") }

func block1(*[5]uint32, *[64]byte) { panic("prf: SHA-NI compression without SHA-NI") }

func rounds256(*[8]uint32, *[64]uint32) { panic("prf: SHA-NI compression without SHA-NI") }

func rounds1(*[5]uint32, *[80]uint32) { panic("prf: SHA-NI compression without SHA-NI") }

func hmac16(*keyPads, *InnerBlock, *[SweepLanes]int32, *[13][SweepLanes]uint32) {
	panic("prf: vector sweep without AVX-512")
}
