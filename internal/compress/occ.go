package compress

import (
	"sre/internal/bitset"
	"sre/internal/mapping"
	"sre/internal/quant"
	"sre/internal/xmath"
)

// OU-column compression (paper §4.1, Fig. 8(c)): within each OU — an
// S_WL-row band crossed with a column group — all-zero column vectors are
// removed and the remaining columns shift left. Unlike row compression
// this changes the bitline→output mapping, so every remaining column
// needs an output index, and (Fig. 10) it cannot combine with Dynamic OU
// Formation: wordlines gathered from different row bands would accumulate
// currents belonging to different outputs on the same bitline.
//
// The structure needed is the transpose of the row case: per (row band,
// physical column), does any cell in the band hold a non-zero value? The
// Structure's per-group row bitsets cannot answer that (they collapse
// columns), so OCC gets its own builder.

// OCCStructure records, per crossbar tile, which (row band, column)
// positions are non-zero.
type OCCStructure struct {
	Layout mapping.Layout
	// cols[rb][cb][band] has bit c set iff tile column c holds a non-zero
	// cell within row band `band`.
	cols [][][]*bitset.Set
}

// BuildOCC scans src and records per-band column occupancy under the
// same geometry conventions as Build.
func BuildOCC(src Source, p quant.Params, g mapping.Geometry) *OCCStructure {
	rows, cols := src.Dims()
	layout := mapping.NewLayout(rows, cols, p, g)
	s := &OCCStructure{Layout: layout}
	bandsIn := func(tileRows int) int { return (tileRows + g.SWL - 1) / g.SWL }
	s.cols = make([][][]*bitset.Set, layout.RowBlocks)
	for rb := range s.cols {
		s.cols[rb] = make([][]*bitset.Set, layout.ColBlocks)
		nBands := bandsIn(layout.TileRows(rb))
		for cb := range s.cols[rb] {
			tileCols := layout.TileCols(cb)
			bands := make([]*bitset.Set, nBands)
			for b := range bands {
				bands[b] = bitset.New(tileCols)
			}
			s.cols[rb][cb] = bands
		}
	}
	cpw := p.CellsPerWeight()
	mask := uint32(1)<<uint(p.CellBits) - 1
	codes := make([]uint32, cols)
	for r := 0; r < rows; r++ {
		src.RowCodes(r, codes)
		rb := r / g.XbarRows
		band := (r % g.XbarRows) / g.SWL
		for c, code := range codes {
			if code == 0 {
				continue
			}
			for j := 0; j < cpw; j++ {
				if code>>uint(j*p.CellBits)&mask == 0 {
					continue
				}
				pc := c*cpw + j
				cb := pc / g.XbarCols
				s.cols[rb][cb][band].Set(pc % g.XbarCols)
			}
		}
	}
	return s
}

// BandRetainedCols returns how many columns of tile (rb, cb) survive
// column compression in row band `band`.
func (s *OCCStructure) BandRetainedCols(rb, cb, band int) int {
	return s.cols[rb][cb][band].Count()
}

// Bands returns the number of S_WL row bands in row block rb.
func (s *OCCStructure) Bands(rb int) int {
	return len(s.cols[rb][0])
}

// OUsPerTileSlice returns the OU activations one tile needs per input
// bit slice under OCC: per row band, the compacted columns re-pack into
// ceil(retained/S_BL) OUs (an empty band costs nothing).
func (s *OCCStructure) OUsPerTileSlice(rb, cb int) int {
	total := 0
	for band := range s.cols[rb][cb] {
		k := s.BandRetainedCols(rb, cb, band)
		total += (k + s.Layout.SBL - 1) / s.Layout.SBL
	}
	return total
}

// CompressedCells returns the mapped cell count under OCC.
func (s *OCCStructure) CompressedCells() int64 {
	var cells int64
	for rb := range s.cols {
		tileRows := s.Layout.TileRows(rb)
		for cb := range s.cols[rb] {
			for band := range s.cols[rb][cb] {
				bandRows := s.Layout.SWL
				if r := tileRows - band*s.Layout.SWL; r < bandRows {
					bandRows = r
				}
				cells += int64(s.BandRetainedCols(rb, cb, band)) * int64(bandRows)
			}
		}
	}
	return cells
}

// SizeBytes estimates the structure's resident memory the way
// Structure.SizeBytes does: the per-(row band, tile) column masks plus
// per-mask bitset headers and a fixed bookkeeping constant.
func (s *OCCStructure) SizeBytes() int64 {
	lay := s.Layout
	var words, masks int64
	for rb := 0; rb < lay.RowBlocks; rb++ {
		bands := int64(s.Bands(rb))
		for cb := 0; cb < lay.ColBlocks; cb++ {
			words += bands * int64(bitset.Words64(lay.TileCols(cb)))
			masks += bands
		}
	}
	return words*8 + masks*48 + 512
}

// OutputIndexBits returns the output-indexing storage OCC needs: every
// retained column of every OU block must record which output bitline its
// current belongs to (paper §2.2 on SNrram: "significant storage
// overhead"; the same cost structure applies to OU-column compression).
// Each index addresses a position within the crossbar's columns.
func (s *OCCStructure) OutputIndexBits() int64 {
	bits := int64(xmath.CeilLog2(s.Layout.XbarCols))
	var total int64
	for rb := range s.cols {
		for cb := range s.cols[rb] {
			for band := range s.cols[rb][cb] {
				total += int64(s.BandRetainedCols(rb, cb, band)) * bits
			}
		}
	}
	return total
}
