// Tiered popcount kernels.
//
// Every counting path in the package funnels into one of three entry
// points — popcountWords (linear popcount), CountAndPlanes (fused
// mask ∩ plane popcount into per-group counts) and TileOU (a whole
// tile's DOF OU and wordline sums over every non-empty slice, with no
// per-group count stored) — each with up to three tiers:
//
//  1. a portable 4-way unrolled math/bits.OnesCount64 kernel (always
//     compiled, the only tier on non-amd64 or `purego` builds),
//  2. an AVX2 assembly path (//go:build amd64 && !purego) selected at
//     runtime by CPUID feature detection, and
//  3. the original one-word-at-a-time scalar loops, kept in the test
//     files as the golden reference every tier is checked against.
//
// Dispatch is shape-aware: AVX2 only pays off past a minimum word
// count (popcount) or for the plane widths the simulator actually hits
// in its hot loop (W == 1 and W == 2 words per group, i.e. crossbar
// tiles of up to 128 rows; for TileOU, eight such groups and a
// power-of-two OU height). Everything else takes the unrolled
// portable tier. All tiers are bit-identical by construction (they
// compute exact population counts), and kernel_test.go + fuzz targets
// enforce agreement on ragged lengths and degenerate planes.
package bitset

import "math/bits"

// avx2PopcountMin is the word count below which the unrolled portable
// kernel beats the AVX2 path (loop setup + VZEROUPPER dominate short
// inputs; scalar POPCNTQ already retires one word per cycle).
const avx2PopcountMin = 16

// Kernel names the counting tier runtime dispatch has selected, for
// diagnostics and benchmark logs ("avx2" or "generic").
func Kernel() string {
	if hasAVX2 {
		return "avx2"
	}
	return "generic"
}

// popcountWords is the single popcount entry point behind CountWords
// and Set.Count.
func popcountWords(words []uint64) int {
	if hasAVX2 && len(words) >= avx2PopcountMin {
		return popcntAVX2(&words[0], len(words))
	}
	return popcountGeneric(words)
}

// popcountGeneric is the portable tier: 4-way unrolled OnesCount64
// with independent accumulators so the adds don't serialize.
func popcountGeneric(words []uint64) int {
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(words); i += 4 {
		c0 += bits.OnesCount64(words[i])
		c1 += bits.OnesCount64(words[i+1])
		c2 += bits.OnesCount64(words[i+2])
		c3 += bits.OnesCount64(words[i+3])
	}
	for ; i < len(words); i++ {
		c0 += bits.OnesCount64(words[i])
	}
	return c0 + c1 + c2 + c3
}

// countAndPlanesGeneric is the portable CountAndPlanes tier. The
// simulator's planes are overwhelmingly 1 or 2 words per group
// (crossbar tiles ≤ 128 rows), so those widths get branch-free
// specializations; wider planes take a 4-way unrolled inner loop.
func countAndPlanesGeneric(mask, plane []uint64, counts []int) {
	switch w := len(mask); w {
	case 1:
		m := mask[0]
		for g, gw := range plane[:len(counts)] {
			counts[g] = bits.OnesCount64(m & gw)
		}
	case 2:
		m0, m1 := mask[0], mask[1]
		for g := range counts {
			counts[g] = bits.OnesCount64(m0&plane[2*g]) + bits.OnesCount64(m1&plane[2*g+1])
		}
	default:
		for g := range counts {
			gw := plane[g*w : g*w+w : g*w+w]
			var c0, c1, c2, c3 int
			i := 0
			for ; i+4 <= w; i += 4 {
				c0 += bits.OnesCount64(mask[i] & gw[i])
				c1 += bits.OnesCount64(mask[i+1] & gw[i+1])
				c2 += bits.OnesCount64(mask[i+2] & gw[i+2])
				c3 += bits.OnesCount64(mask[i+3] & gw[i+3])
			}
			for ; i < w; i++ {
				c0 += bits.OnesCount64(mask[i] & gw[i])
			}
			counts[g] = c0 + c1 + c2 + c3
		}
	}
}

// tileOUGeneric is the portable TileOU tier: one pass per set slice,
// each group's count folded into the sums as soon as it is known, with
// the same one- and two-word specializations as countAndPlanesGeneric.
func tileOUGeneric(masks []uint64, stride int, ne uint64, plane []uint64, groups, w, swl int) (ous, wl int64) {
	shift := -1
	if swl&(swl-1) == 0 {
		shift = bits.TrailingZeros(uint(swl))
	}
	var o, n int
	for ; ne != 0; ne &= ne - 1 {
		off := bits.TrailingZeros64(ne) * stride
		m := masks[off : off+w : off+w]
		switch w {
		case 1:
			m0 := m[0]
			for _, gw := range plane[:groups] {
				nz := bits.OnesCount64(m0 & gw)
				n += nz
				o += ouCeil(nz, swl, shift)
			}
		case 2:
			m0, m1 := m[0], m[1]
			for g := 0; g < groups; g++ {
				nz := bits.OnesCount64(m0&plane[2*g]) + bits.OnesCount64(m1&plane[2*g+1])
				n += nz
				o += ouCeil(nz, swl, shift)
			}
		default:
			for g := 0; g < groups; g++ {
				gw := plane[g*w : g*w+w : g*w+w]
				nz := 0
				for i, mw := range m {
					nz += bits.OnesCount64(mw & gw[i])
				}
				n += nz
				o += ouCeil(nz, swl, shift)
			}
		}
	}
	return int64(o), int64(n)
}

// ouCeil returns ceil(nz/swl): a shift when swl is a power of two
// (shift = log2 swl), a division otherwise (shift < 0).
func ouCeil(nz, swl, shift int) int {
	if shift >= 0 {
		return (nz + swl - 1) >> uint(shift)
	}
	return (nz + swl - 1) / swl
}
