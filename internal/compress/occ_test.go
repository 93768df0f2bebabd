package compress

import (
	"testing"

	"sre/internal/mapping"
	"sre/internal/quant"
	"sre/internal/xrand"
)

// TestFigure8OCCExample reproduces Fig. 8(c): in the 4×4 crossbar with
// 2×2 OUs, the 2nd column of OU1 (rows 0–1, cols 0–1) and the 2nd column
// of OU4 (rows 2–3, cols 2–3) are zero and get compressed away.
func TestFigure8OCCExample(t *testing.T) {
	src := codeSource(4, 4, []uint32{
		1, 0, 2, 1, // OU1 col1 zero; OU3 dense-ish
		2, 0, 1, 2,
		0, 3, 1, 0, // OU2 dense in col1; OU4 col3 zero
		1, 2, 2, 0,
	})
	g := mapping.Geometry{XbarRows: 4, XbarCols: 4, SWL: 2, SBL: 2}
	s := BuildOCC(src, oneCell, g)
	// Band 0 (rows 0-1): group cols {0,2,3} retained (col 1 zero).
	if got := s.BandRetainedCols(0, 0, 0); got != 3 {
		t.Fatalf("band 0 retained %d, want 3", got)
	}
	// Band 1 (rows 2-3): cols {0,1,2} retained (col 3 zero).
	if got := s.BandRetainedCols(0, 0, 1); got != 3 {
		t.Fatalf("band 1 retained %d, want 3", got)
	}
	// Per slice: each band re-packs 3 columns into ceil(3/2)=2 OUs → 4
	// total, versus 2 bands × 2 groups = 4 uncompressed... the example's
	// saving appears at the cell level:
	if s.CompressedCells() != 3*2+3*2 {
		t.Fatalf("compressed cells = %d, want 12", s.CompressedCells())
	}
	if occRatio(s) <= 1 {
		t.Fatal("OCC must compress this matrix")
	}
}

func TestOCCOUsPerTileSlice(t *testing.T) {
	// One band entirely zero must cost zero OUs.
	src := codeSource(4, 2, []uint32{
		0, 0,
		0, 0,
		5, 5,
		5, 5,
	})
	g := mapping.Geometry{XbarRows: 4, XbarCols: 2, SWL: 2, SBL: 2}
	s := BuildOCC(src, oneCell, g)
	if got := s.OUsPerTileSlice(0, 0); got != 1 {
		t.Fatalf("OUs per slice = %d, want 1 (empty band skipped)", got)
	}
}

// TestOCCMatchesBruteForce validates the builder against direct cell
// recomputation on random instances.
func TestOCCMatchesBruteForce(t *testing.T) {
	r := xrand.New(3)
	p := quant.Params{WBits: 8, ABits: 8, CellBits: 2, DACBits: 1}
	for trial := 0; trial < 8; trial++ {
		rows := 4 + r.Intn(60)
		cols := 1 + r.Intn(8)
		codes := &CodeSource{Rows: rows, Cols: cols, Codes: make([]uint32, rows*cols)}
		for i := range codes.Codes {
			if !r.Bernoulli(0.6) {
				codes.Codes[i] = uint32(r.Intn(256))
			}
		}
		g := mapping.Geometry{XbarRows: 16, XbarCols: 8, SWL: 4, SBL: 4}
		s := BuildOCC(codes, p, g)
		lay := s.Layout
		cpw := p.CellsPerWeight()
		for rb := 0; rb < lay.RowBlocks; rb++ {
			for cb := 0; cb < lay.ColBlocks; cb++ {
				for band := 0; band < s.Bands(rb); band++ {
					want := 0
					for tc := 0; tc < lay.TileCols(cb); tc++ {
						pc := cb*g.XbarCols + tc
						c, j := pc/cpw, pc%cpw
						nonzero := false
						for dr := 0; dr < g.SWL; dr++ {
							row := rb*g.XbarRows + band*g.SWL + dr
							if row >= rows || row >= (rb+1)*g.XbarRows {
								break
							}
							if codes.Codes[row*cols+c]>>uint(j*2)&3 != 0 {
								nonzero = true
								break
							}
						}
						if nonzero {
							want++
						}
					}
					if got := s.BandRetainedCols(rb, cb, band); got != want {
						t.Fatalf("trial %d (%d,%d,band %d): %d, want %d",
							trial, rb, cb, band, got, want)
					}
				}
			}
		}
	}
}

// occRatio is an OCC structure's compression ratio, as the simulator's
// footprint (core.FootprintOf) reports it.
func occRatio(s *OCCStructure) float64 {
	return float64(s.Layout.TotalCells()) / float64(s.CompressedCells())
}

// TestOCCComparableToORCOnColumnStructure: weights with column-structured
// zeros favour OCC; row-structured zeros favour ORC. Both must beat 1 on
// their own structure.
func TestOCCvsORCStructuralAffinity(t *testing.T) {
	r := xrand.New(9)
	mk := func(rowStructured bool) (*Structure, *OCCStructure) {
		codes := &CodeSource{Rows: 64, Cols: 16, Codes: make([]uint32, 64*16)}
		// Dense non-zero fill, then structured zeros on even rows (or
		// even columns).
		for row := 0; row < 64; row++ {
			for c := 0; c < 16; c++ {
				switch {
				case rowStructured && row%2 == 0:
					// zero row
				case !rowStructured && c%2 == 0:
					// zero column
				default:
					codes.Codes[row*16+c] = uint32(1 + r.Intn(15))
				}
			}
		}
		p := oneCell
		g := mapping.Geometry{XbarRows: 16, XbarCols: 16, SWL: 4, SBL: 4}
		return Build(codes, p, g), BuildOCC(codes, p, g)
	}
	rowSt, rowOCC := mk(true)
	if rowSt.CompressionRatio(ORC, 0) < 1.9 {
		t.Fatalf("ORC missed row structure: %v", rowSt.CompressionRatio(ORC, 0))
	}
	if occRatio(rowOCC) > rowSt.CompressionRatio(ORC, 0) {
		t.Fatal("OCC should not beat ORC on row-structured zeros")
	}
	colSt, colOCC := mk(false)
	if occRatio(colOCC) < 1.9 {
		t.Fatalf("OCC missed column structure: %v", occRatio(colOCC))
	}
	if colSt.CompressionRatio(ORC, 0) > occRatio(colOCC) {
		t.Fatal("ORC should not beat OCC on column-structured zeros")
	}
}

func TestOCCOutputIndexBits(t *testing.T) {
	src := codeSource(4, 4, []uint32{
		1, 0, 2, 1,
		2, 0, 1, 2,
		0, 3, 1, 0,
		1, 2, 2, 0,
	})
	g := mapping.Geometry{XbarRows: 4, XbarCols: 4, SWL: 2, SBL: 2}
	s := BuildOCC(src, oneCell, g)
	// 6 retained columns × log2(4)=2 bits.
	if got := s.OutputIndexBits(); got != 12 {
		t.Fatalf("output index bits = %d, want 12", got)
	}
}

// TestOCCSizeBytes checks the geometry-derived estimate against the
// masks the builder actually allocated.
func TestOCCSizeBytes(t *testing.T) {
	r := xrand.New(5)
	p := quant.Params{WBits: 8, ABits: 8, CellBits: 2, DACBits: 1}
	g := mapping.Geometry{XbarRows: 32, XbarCols: 24, SWL: 8, SBL: 4}
	codes := &CodeSource{Rows: 70, Cols: 20, Codes: make([]uint32, 70*20)}
	for i := range codes.Codes {
		codes.Codes[i] = uint32(r.Intn(1 << 8))
	}
	s := BuildOCC(codes, p, g)
	var words, masks int64
	for rb := range s.cols {
		for cb := range s.cols[rb] {
			for _, band := range s.cols[rb][cb] {
				words += int64(len(band.Words()))
				masks++
			}
		}
	}
	if want := words*8 + masks*48 + 512; s.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, allocated masks give %d", s.SizeBytes(), want)
	}
}
