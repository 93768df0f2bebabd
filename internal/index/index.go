// Package index implements SRE's input-indexing machinery (paper §5.1,
// §5.2, Figs. 12–15): delta encoding of the non-zero row indexes each
// column-wise OU group must fetch, zero-padding that bounds the encoded
// width, the parallel-prefix-sum Index Decoder that recovers absolute
// indexes at run time, and the Wordline Vector Generator that gathers
// non-zero inputs into virtual OUs for Dynamic OU Formation.
//
// Encoding convention: with B index bits, a stored code d ∈ [0, 2^B−1]
// means "next index = previous index + d + 1" (the +1 exists because two
// retained rows are always distinct). The first code is relative to −1.
// When a gap exceeds 2^B a filler zero row is inserted at prev + 2^B and
// costs one OU-row of execution like any retained row. This convention
// reproduces the paper's Fig. 12 example exactly: rows {1,3,9} with 2-bit
// codes force a filler at row 7.
package index

import (
	"fmt"

	"sre/internal/bitset"
)

// Encoding is the delta-encoded index stream for one column-wise OU
// group.
type Encoding struct {
	Bits   int      // code width in bits
	Codes  []uint32 // stored codes, each < 2^Bits
	Rows   []int    // decoded row list including filler rows, ascending
	Filler int      // how many of Rows are zero-padding fillers
}

// StorageBits returns the index storage this encoding occupies.
func (e *Encoding) StorageBits() int64 { return int64(len(e.Codes)) * int64(e.Bits) }

// MaxBits is the widest code Encode and AppendEncodedRows accept.
const MaxBits = 30

// Encode delta-encodes the ascending row indexes rows using B-bit codes,
// inserting filler rows where a gap exceeds the representable span.
func Encode(rows []int, bits int) (*Encoding, error) {
	if bits <= 0 || bits > MaxBits {
		return nil, fmt.Errorf("index: code width %d out of range", bits)
	}
	span := 1 << uint(bits) // maximum representable raw delta
	e := &Encoding{Bits: bits}
	prev := -1
	for _, idx := range rows {
		if idx <= prev {
			return nil, fmt.Errorf("index: rows must be strictly ascending and non-negative (got %d after %d)", idx, prev)
		}
		for idx-prev > span {
			// Filler zero row at the farthest representable position.
			filler := prev + span
			e.Codes = append(e.Codes, uint32(span-1))
			e.Rows = append(e.Rows, filler)
			e.Filler++
			prev = filler
		}
		e.Codes = append(e.Codes, uint32(idx-prev-1))
		e.Rows = append(e.Rows, idx)
		prev = idx
	}
	return e, nil
}

// AppendEncodedRows appends to dst the decoded row list — fillers
// included — that Encode(rows, bits) would produce, returning the grown
// slice and the filler count. It is the allocation-free core of Encode
// for callers that batch many groups' row lists into one backing array
// (compress.Structure plan building): every filler and every retained
// row stores exactly one code, so the encoding's storage is
// (appended row count) · bits without materializing the codes.
func AppendEncodedRows(dst []int, rows []int, bits int) ([]int, int, error) {
	if bits <= 0 || bits > MaxBits {
		return dst, 0, fmt.Errorf("index: code width %d out of range", bits)
	}
	span := 1 << uint(bits)
	fillers := 0
	prev := -1
	for _, idx := range rows {
		if idx <= prev {
			return dst, 0, fmt.Errorf("index: rows must be strictly ascending and non-negative (got %d after %d)", idx, prev)
		}
		for idx-prev > span {
			prev += span
			dst = append(dst, prev)
			fillers++
		}
		dst = append(dst, idx)
		prev = idx
	}
	return dst, fillers, nil
}

// Decode recovers the absolute row list from the stored codes by prefix
// summation — the operation the hardware Index Decoder performs. It is
// the exact inverse of Encode (fillers included).
func Decode(codes []uint32, bits int) []int {
	rows := make([]int, len(codes))
	prev := -1
	for i, c := range codes {
		prev += int(c) + 1
		rows[i] = prev
	}
	_ = bits
	return rows
}

// DecoderModel models the width-limited Hillis–Steele Index Decoder
// (Figs. 13–14): codes are consumed `Width` at a time; each pass computes
// the parallel prefix sum of its block in ceil(log2(Width)) adder stages
// and adds the running base.
type DecoderModel struct {
	Width int
}

// DecodeResult reports what the hardware decode run would do.
type DecodeResult struct {
	Rows   []int // decoded absolute indexes
	Passes int   // blocks processed (one per cycle at full throughput)
	Stages int   // adder stages per pass (log2 of width)
}

// Run decodes the stream and reports pass/stage counts.
func (d DecoderModel) Run(codes []uint32) DecodeResult {
	if d.Width <= 0 {
		panic("index: decoder width must be positive")
	}
	stages := 0
	for 1<<uint(stages) < d.Width {
		stages++
	}
	res := DecodeResult{Stages: stages}
	base := -1
	for lo := 0; lo < len(codes); lo += d.Width {
		hi := lo + d.Width
		if hi > len(codes) {
			hi = len(codes)
		}
		block := codes[lo:hi]
		// Hillis–Steele inclusive prefix sum over (code+1) values.
		sums := make([]int, len(block))
		for i, c := range block {
			sums[i] = int(c) + 1
		}
		for step := 1; step < len(block); step <<= 1 {
			next := make([]int, len(block))
			copy(next, sums)
			for i := step; i < len(block); i++ {
				next[i] = sums[i] + sums[i-step]
			}
			sums = next
		}
		for _, s := range sums {
			res.Rows = append(res.Rows, base+s)
		}
		if len(sums) > 0 {
			base += sums[len(sums)-1]
		}
		res.Passes++
	}
	return res
}

// CanSustain reports whether the decoder keeps the pipeline fed: it must
// decode `rowsPerBatch` indexes within `cyclesAvailable` pipeline cycles,
// processing Width codes per cycle (paper §5.3: width 8 decodes 128
// indexes in 16 decoder cycles, which fits inside one 30 ns OU cycle of
// the slower ADC stage at the decoder's synthesized clock).
func (d DecoderModel) CanSustain(rowsPerBatch, codesPerCycle int) bool {
	return d.Width >= codesPerCycle && rowsPerBatch > 0
}

// WordlineVectorGenerator models Fig. 15: given the mask of wordlines
// whose current input slice is non-zero, emit one wordline-activation
// vector per cycle, each activating up to S_WL masked wordlines in
// ascending order (the prefix-sum + comparator window of the paper).
type WordlineVectorGenerator struct {
	SWL int
}

// Vectors returns the activation vectors for one batch. The i-th vector
// activates the masked wordlines whose 1-based prefix count lies in
// [1+i·S_WL, 1+(i+1)·S_WL).
func (g WordlineVectorGenerator) Vectors(mask *bitset.Set) []*bitset.Set {
	if g.SWL <= 0 {
		panic("index: S_WL must be positive")
	}
	n := mask.Len()
	total := mask.Count()
	cycles := (total + g.SWL - 1) / g.SWL
	out := make([]*bitset.Set, cycles)
	for i := range out {
		out[i] = bitset.New(n)
	}
	count := 0
	for i := mask.NextSet(0); i >= 0; i = mask.NextSet(i + 1) {
		out[count/g.SWL].Set(i)
		count++
	}
	return out
}

// Cycles returns only the number of activation vectors (OU cycles) the
// generator would emit for a mask with `nonZero` set bits.
func (g WordlineVectorGenerator) Cycles(nonZero int) int {
	if g.SWL <= 0 {
		panic("index: S_WL must be positive")
	}
	return (nonZero + g.SWL - 1) / g.SWL
}
