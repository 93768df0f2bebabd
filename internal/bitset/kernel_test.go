package bitset

import (
	"math/bits"
	"os"
	"regexp"
	"strings"
	"testing"

	"sre/internal/xrand"
)

// popcountRef is the golden-reference popcount: the original
// one-word-at-a-time scalar loop every kernel tier must match.
func popcountRef(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
}

// countAndPlanesRef is the golden-reference plane kernel: the original
// simple per-group loop.
func countAndPlanesRef(mask, plane []uint64, counts []int) {
	w := len(mask)
	for g := range counts {
		c := 0
		for i, m := range mask {
			c += bits.OnesCount64(m & plane[g*w+i])
		}
		counts[g] = c
	}
}

// raggedLengths hits every dispatch boundary: empty, single word,
// non-multiples of the 4-way unroll, and both sides of the AVX2
// popcount threshold.
var raggedLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 15, 16, 17, 31, 32, 33, 64, 100, 129}

func kernelWords(r *xrand.RNG, n int, fill string) []uint64 {
	words := make([]uint64, n)
	for i := range words {
		switch fill {
		case "zero":
		case "ones":
			words[i] = ^uint64(0)
		default:
			words[i] = r.Uint64()
		}
	}
	return words
}

func TestPopcountTiersAgree(t *testing.T) {
	r := xrand.New(7)
	for _, n := range raggedLengths {
		for _, fill := range []string{"zero", "ones", "random"} {
			words := kernelWords(r, n, fill)
			want := popcountRef(words)
			if got := popcountGeneric(words); got != want {
				t.Errorf("popcountGeneric n=%d fill=%s: got %d want %d", n, fill, got, want)
			}
			if got := CountWords(words); got != want {
				t.Errorf("CountWords n=%d fill=%s: got %d want %d", n, fill, got, want)
			}
			if hasAVX2 && n > 0 {
				if got := popcntAVX2(&words[0], n); got != want {
					t.Errorf("popcntAVX2 n=%d fill=%s: got %d want %d", n, fill, got, want)
				}
			}
		}
	}
}

func TestSetCountMatchesKernel(t *testing.T) {
	r := xrand.New(8)
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096} {
		s := randomSet(r, n, 0.4)
		if got, want := s.Count(), popcountRef(s.Words()); got != want {
			t.Errorf("Set.Count n=%d: got %d want %d", n, got, want)
		}
	}
}

func TestCountAndPlanesTiersAgree(t *testing.T) {
	r := xrand.New(9)
	widths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9}
	groupCounts := []int{0, 1, 2, 3, 4, 5, 7, 8, 17}
	for _, w := range widths {
		for _, groups := range groupCounts {
			for _, fill := range []string{"zero", "ones", "random"} {
				mask := kernelWords(r, w, fill)
				plane := kernelWords(r, w*groups, fill)
				want := make([]int, groups)
				countAndPlanesRef(mask, plane, want)

				got := make([]int, groups)
				for i := range got {
					got[i] = -1
				}
				CountAndPlanes(mask, plane, got)
				for g := range want {
					if got[g] != want[g] {
						t.Fatalf("CountAndPlanes w=%d groups=%d fill=%s g=%d: got %d want %d",
							w, groups, fill, g, got[g], want[g])
					}
				}

				if w > 0 && groups > 0 {
					gen := make([]int, groups)
					countAndPlanesGeneric(mask, plane, gen)
					for g := range want {
						if gen[g] != want[g] {
							t.Fatalf("countAndPlanesGeneric w=%d groups=%d fill=%s g=%d: got %d want %d",
								w, groups, fill, g, gen[g], want[g])
						}
					}
				}
				if hasAVX2 && groups > 0 {
					av := make([]int, groups)
					switch w {
					case 1:
						countAndPlanes1(mask[0], plane, av)
					case 2:
						countAndPlanes2(mask, plane, av)
					default:
						continue
					}
					for g := range want {
						if av[g] != want[g] {
							t.Fatalf("AVX2 w=%d groups=%d fill=%s g=%d: got %d want %d",
								w, groups, fill, g, av[g], want[g])
						}
					}
				}
			}
		}
	}
}

// FuzzPopcountTiers cross-checks every popcount tier on arbitrary
// byte-derived word slices (the fuzzer finds ragged lengths on its own
// since len(data)/8 rarely aligns with the unroll).
func FuzzPopcountTiers(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(make([]byte, 8*17))
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint64, len(data)/8+1)
		for i, b := range data {
			words[i/8] |= uint64(b) << uint(8*(i%8))
		}
		for n := 0; n <= len(words); n++ {
			sub := words[:n]
			want := popcountRef(sub)
			if got := popcountGeneric(sub); got != want {
				t.Fatalf("popcountGeneric n=%d: got %d want %d", n, got, want)
			}
			if got := CountWords(sub); got != want {
				t.Fatalf("CountWords n=%d: got %d want %d", n, got, want)
			}
			if hasAVX2 && n > 0 {
				if got := popcntAVX2(&sub[0], n); got != want {
					t.Fatalf("popcntAVX2 n=%d: got %d want %d", n, got, want)
				}
			}
		}
	})
}

// FuzzCountAndPlanesTiers cross-checks the fused plane kernel tiers,
// deriving (width, groups, words) from the fuzz input.
func FuzzCountAndPlanesTiers(f *testing.F) {
	f.Add(uint8(1), uint8(4), []byte{0xff, 0x00, 0x12})
	f.Add(uint8(2), uint8(3), []byte{})
	f.Add(uint8(5), uint8(2), make([]byte, 96))
	f.Fuzz(func(t *testing.T, w8, g8 uint8, data []byte) {
		w := int(w8%9) + 1
		groups := int(g8 % 18)
		need := w * (groups + 1)
		words := make([]uint64, need)
		for i, b := range data {
			if i/8 >= need {
				break
			}
			words[i/8] |= uint64(b) << uint(8*(i%8))
		}
		mask, plane := words[:w], words[w:w+w*groups]
		want := make([]int, groups)
		countAndPlanesRef(mask, plane, want)
		got := make([]int, groups)
		CountAndPlanes(mask, plane, got)
		for g := range want {
			if got[g] != want[g] {
				t.Fatalf("w=%d groups=%d g=%d: got %d want %d", w, groups, g, got[g], want[g])
			}
		}
		if groups > 0 {
			gen := make([]int, groups)
			countAndPlanesGeneric(mask, plane, gen)
			for g := range want {
				if gen[g] != want[g] {
					t.Fatalf("generic w=%d groups=%d g=%d: got %d want %d", w, groups, g, gen[g], want[g])
				}
			}
		}
	})
}

// tileOURef is the golden-reference TileOU: every (slice, group)
// count materialized one word at a time, then divided.
func tileOURef(masks []uint64, stride int, ne uint64, plane []uint64, groups, swl int) (ous, wl int64) {
	if groups == 0 {
		return 0, 0
	}
	w := len(plane) / groups
	for s := 0; s < 64; s++ {
		if ne&(1<<uint(s)) == 0 {
			continue
		}
		for g := 0; g < groups; g++ {
			nz := 0
			for i := 0; i < w; i++ {
				nz += bits.OnesCount64(masks[s*stride+i] & plane[g*w+i])
			}
			ous += int64((nz + swl - 1) / swl)
			wl += int64(nz)
		}
	}
	return ous, wl
}

// checkTileOU compares TileOU, its portable tier and (for the shapes
// it serves) its AVX2 tier against tileOURef on one input.
func checkTileOU(t *testing.T, masks []uint64, stride int, ne uint64, plane []uint64, groups, swl int) {
	t.Helper()
	wantO, wantW := tileOURef(masks, stride, ne, plane, groups, swl)
	if o, w := TileOU(masks, stride, ne, plane, groups, swl); o != wantO || w != wantW {
		t.Fatalf("TileOU groups=%d len(plane)=%d stride=%d ne=%#x swl=%d: got (%d, %d) want (%d, %d)",
			groups, len(plane), stride, ne, swl, o, w, wantO, wantW)
	}
	if groups == 0 || ne == 0 {
		return
	}
	w := len(plane) / groups
	if o, n := tileOUGeneric(masks, stride, ne, plane, groups, w, swl); o != wantO || n != wantW {
		t.Fatalf("tileOUGeneric groups=%d w=%d stride=%d ne=%#x swl=%d: got (%d, %d) want (%d, %d)",
			groups, w, stride, ne, swl, o, n, wantO, wantW)
	}
	if hasAVX2 && groups == 8 && (w == 1 || w == 2) && swl&(swl-1) == 0 {
		if o, n := tileOU8(masks, stride, ne, plane, w, bits.TrailingZeros(uint(swl))); o != wantO || n != wantW {
			t.Fatalf("AVX2 w=%d stride=%d ne=%#x swl=%d: got (%d, %d) want (%d, %d)",
				w, stride, ne, swl, o, n, wantO, wantW)
		}
	}
}

func TestTileOUTiersAgree(t *testing.T) {
	r := xrand.New(11)
	const slices = 32
	for _, w := range []int{1, 2, 3, 8} {
		for _, groups := range []int{0, 1, 7, 8, 9, 16} {
			for _, stride := range []int{w, w + 1, 2*w + 3} {
				for _, fill := range []string{"zero", "ones", "random"} {
					masks := kernelWords(r, slices*stride, fill)
					plane := kernelWords(r, w*groups, fill)
					for _, ne := range []uint64{0, 1, 1<<slices - 1, 1 << 31, r.Uint64() & (1<<slices - 1)} {
						for _, swl := range []int{1, 3, 16, 128} {
							checkTileOU(t, masks, stride, ne, plane, groups, swl)
						}
					}
				}
			}
		}
	}
}

// FuzzTileOUTiers cross-checks the fused tile kernel tiers, deriving
// (width, groups, stride, slice bitmap, swl) and the words from the
// fuzz input.
func FuzzTileOUTiers(f *testing.F) {
	f.Add(uint8(1), uint8(8), uint8(0), uint64(0xffff), uint8(16), []byte{0xff, 0x00, 0x12})
	f.Add(uint8(2), uint8(8), uint8(1), uint64(1<<15|1), uint8(16), make([]byte, 96))
	f.Add(uint8(3), uint8(9), uint8(2), uint64(0x5a5a), uint8(3), []byte{0xaa})
	f.Fuzz(func(t *testing.T, w8, g8, pad8 uint8, ne uint64, swl8 uint8, data []byte) {
		w := int(w8%9) + 1
		groups := int(g8 % 18)
		stride := w + int(pad8%4)
		swl := int(swl8%128) + 1
		const slices = 16
		ne &= 1<<slices - 1
		need := slices*stride + w*groups
		words := make([]uint64, need)
		for i, b := range data {
			words[(i/8)%need] ^= uint64(b) << uint(8*(i%8))
		}
		masks, plane := words[:slices*stride], words[slices*stride:]
		checkTileOU(t, masks, stride, ne, plane, groups, swl)
	})
}

// legacyXMMLines returns the 1-based lines of an assembly source whose
// instructions are not VEX-encoded but touch an X register.
func legacyXMMLines(src string) []int {
	xreg := regexp.MustCompile(`\bX\d+\b`)
	var bad []int
	for i, line := range strings.Split(src, "\n") {
		code, _, _ := strings.Cut(line, "//")
		for _, ins := range strings.Split(code, ";") {
			fields := strings.Fields(strings.TrimSuffix(strings.TrimSpace(ins), "\\"))
			if len(fields) < 2 || strings.HasPrefix(fields[0], "V") || strings.HasPrefix(fields[0], "#") {
				continue
			}
			if xreg.MatchString(strings.Join(fields[1:], " ")) {
				bad = append(bad, i+1)
				break
			}
		}
	}
	return bad
}

// TestKernelAsmVEXOnly keeps the assembly tier VEX-encoded: a
// legacy-SSE instruction touching an X register (MOVQ X7, AX rather
// than VMOVQ X7, AX) pays an AVX/SSE transition that cost ~150 ns per
// call on an AVX2 server core, several times a one-slice TileOU call.
func TestKernelAsmVEXOnly(t *testing.T) {
	probe := "\tMOVQ X7, AX\n\tVMOVQ X7, AX\n#define M \\\n\tVPXOR Y1, Y1, Y1; \\\n\tMOVQ AX, X0\n"
	if got := legacyXMMLines(probe); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("scanner self-check: flagged lines %v, want [1 5]", got)
	}
	src, err := os.ReadFile("kernel_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	for _, n := range legacyXMMLines(string(src)) {
		t.Errorf("kernel_amd64.s:%d: legacy-SSE instruction on an X register: %s", n, strings.TrimSpace(lines[n-1]))
	}
}

func BenchmarkCountWords(b *testing.B) {
	r := xrand.New(3)
	words := kernelWords(r, 512, "random")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkInt = CountWords(words)
	}
}

var sinkInt int

func benchmarkCountAndPlanes(b *testing.B, w, groups int) {
	r := xrand.New(4)
	mask := kernelWords(r, w, "random")
	plane := kernelWords(r, w*groups, "random")
	counts := make([]int, groups)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CountAndPlanes(mask, plane, counts)
	}
}

func BenchmarkCountAndPlanesW1(b *testing.B) { benchmarkCountAndPlanes(b, 1, 16) }
func BenchmarkCountAndPlanesW2(b *testing.B) { benchmarkCountAndPlanes(b, 2, 16) }
func BenchmarkCountAndPlanesW8(b *testing.B) { benchmarkCountAndPlanes(b, 8, 16) }

// benchmarkTileOU times one tile visit at a Table-1 shape: eight
// groups of w words, 16 slices of which half are non-empty, SWL 16.
func benchmarkTileOU(b *testing.B, w int) {
	r := xrand.New(5)
	const stride = 2
	masks := kernelWords(r, 16*stride, "random")
	plane := kernelWords(r, 8*w, "random")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o, _ := TileOU(masks, stride, 0x5555, plane, 8, 16)
		sinkInt += int(o)
	}
}

func BenchmarkTileOUW1(b *testing.B) { benchmarkTileOU(b, 1) }
func BenchmarkTileOUW2(b *testing.B) { benchmarkTileOU(b, 2) }
