// Word-plane kernels: fused popcount/gather primitives over raw
// []uint64 word slices, used by the simulator's Dynamic-OU-Formation
// hot loop. A "plane" is a structure-of-arrays flattening of the
// per-group retained-row bitsets of one crossbar tile — group g's words
// stored contiguously at [g*W : (g+1)*W] — so counting every group's
// mask intersection is one linear pass with no per-group *Set pointer
// chasing. Planes are built once per compression structure and shared
// read-only by all workers.
package bitset

import "math/bits"

// Words64 returns how many 64-bit words hold n bits.
func Words64(n int) int { return (n + wordBits - 1) / wordBits }

// AppendPlane appends s's backing words to plane and returns it —
// the flattening step that packs one group's row bitset into a tile's
// word plane.
func AppendPlane(plane []uint64, s *Set) []uint64 {
	return append(plane, s.words...)
}

// CountWords returns the population count of a raw word slice. It
// shares one kernel entry point with Set.Count (see kernel.go).
func CountWords(words []uint64) int {
	return popcountWords(words)
}

// CountAndPlanes computes counts[g] = popcount(mask ∩ plane group g)
// for every group in one pass. plane holds len(counts) groups of
// len(mask) words each (group g at plane[g*len(mask):(g+1)*len(mask)]).
// Dispatch is shape-aware (kernel.go): the simulator's dominant plane
// widths (1 and 2 words per group) take the AVX2 tier when available;
// everything else takes the unrolled portable tier.
func CountAndPlanes(mask, plane []uint64, counts []int) {
	w := len(mask)
	if len(plane) != w*len(counts) {
		panic("bitset: CountAndPlanes plane/mask/counts size mismatch")
	}
	if w == 0 || len(counts) == 0 {
		for g := range counts {
			counts[g] = 0
		}
		return
	}
	if hasAVX2 {
		switch w {
		case 1:
			countAndPlanes1(mask[0], plane, counts)
			return
		case 2:
			countAndPlanes2(mask, plane, counts)
			return
		}
	}
	countAndPlanesGeneric(mask, plane, counts)
}

// TileOU is the fused Dynamic-OU-Formation count of one tile for one
// window. For every slice s set in ne, the mask words of s start at
// masks[s·stride]; for every group g of plane (groups groups of
// len(plane)/groups words each) it takes nz = popcount(mask_s ∩ group
// g) and returns ous = Σ ceil(nz/swl) and wl = Σ nz over all (s, g).
// The per-group counts are never stored. stride must be at least the
// group width, and every slice in ne must fit in masks.
//
// Dispatch (kernel.go): eight groups of one or two words with a
// power-of-two swl — Table 1's 128-row tiles and 16×16 OUs — take the
// AVX2 tier, which keeps the plane in registers across the slice
// loop; everything else takes the portable tier.
func TileOU(masks []uint64, stride int, ne uint64, plane []uint64, groups, swl int) (ous, wl int64) {
	if ne == 0 || groups == 0 {
		return 0, 0
	}
	if swl < 1 || len(plane)%groups != 0 {
		panic("bitset: TileOU needs swl >= 1 and groups dividing the plane")
	}
	w := len(plane) / groups
	if w == 0 {
		return 0, 0
	}
	last := 63 - bits.LeadingZeros64(ne)
	if stride < w || last*stride+w > len(masks) {
		panic("bitset: TileOU mask slices out of range")
	}
	if hasAVX2 && groups == 8 && w <= 2 && swl&(swl-1) == 0 {
		return tileOU8(masks, stride, ne, plane, w, bits.TrailingZeros(uint(swl)))
	}
	return tileOUGeneric(masks, stride, ne, plane, groups, w, swl)
}

// BuildSliceMasks derives every activation bit-slice mask from one
// window's quantized codes in a single sweep: bit i of masks[s] is set
// iff codes[i] has a non-zero dacBits-wide digit at slice s. Each
// masks[s] must hold Words64(len(codes)) words; contents are
// overwritten. The returned bitmap has bit s set iff slice s ended up
// non-empty (slices ≥ 64 are conservatively reported non-empty), so
// callers can skip all-zero high slices without rescanning words.
func BuildSliceMasks(codes []uint32, dacBits int, masks [][]uint64) uint64 {
	nw := Words64(len(codes))
	for s := range masks {
		ms := masks[s][:nw]
		for i := range ms {
			ms[i] = 0
		}
	}
	var nonEmpty uint64
	if dacBits == 1 {
		// One mask bit per code bit: walk only the set bits of each code.
		limit := ^uint32(0)
		if spi := len(masks); spi < 32 {
			limit = uint32(1)<<uint(spi) - 1
		}
		for i, code := range codes {
			if code == 0 {
				continue
			}
			w, bit := i>>6, uint64(1)<<uint(i&63)
			for c := code & limit; c != 0; c &= c - 1 {
				s := bits.TrailingZeros32(c)
				masks[s][w] |= bit
				nonEmpty |= 1 << uint(s)
			}
		}
		return nonEmpty
	}
	dacMask := uint32(1)<<uint(dacBits) - 1
	for i, code := range codes {
		if code == 0 {
			continue
		}
		w, bit := i>>6, uint64(1)<<uint(i&63)
		for s := range masks {
			if code>>uint(s*dacBits)&dacMask != 0 {
				masks[s][w] |= bit
				if s < 64 {
					nonEmpty |= 1 << uint(s)
				} else {
					nonEmpty = ^uint64(0)
				}
			}
		}
	}
	return nonEmpty
}
