// Package crossbar is the functional model of an OU-based ReRAM crossbar
// array (paper §3, Figs. 6–10).
//
// It executes matrix–vector products the way the hardware does — cells
// programmed from a decomposed weight matrix, inputs fed as bit slices,
// an explicit wordline-activation vector per cycle, at most S_WL×S_BL
// cells active per cycle, partial sums accumulated per bitline and
// assembled by shift-and-add — and it reports the cycles consumed. Two
// properties hang off this package:
//
//  1. Correctness: for any compression schedule that preserves the
//     bitline→output mapping (ORC, with or without DOF), Execute's result
//     equals the plain integer matrix–vector product. The tests also
//     reproduce the paper's Fig. 10 failure: DOF over a column-compressed
//     layout accumulates currents belonging to different outputs.
//  2. Cycle truth: the analytic cycle model in internal/core is checked
//     against Execute's counted cycles on random instances.
//
// Only tests import this package. It is the functional oracle for the
// analytic model: no simulation path runs it, so a bug the analytic
// model's implementations share still shows up as a disagreement with
// it.
package crossbar

import (
	"fmt"
	"sync/atomic"

	"sre/internal/metrics"
	"sre/internal/quant"
	"sre/internal/reram"
	"sre/internal/xrand"
)

// Array is a single physical crossbar of Rows×Cols cells. It counts its
// OU reads — ideal (ReadOU) vs noisy (ReadOUNoisy) — so accuracy
// studies can report how much traffic went through the device channel.
type Array struct {
	Rows, Cols int
	cells      []uint16

	idealReads atomic.Int64
	noisyReads atomic.Int64
}

// New returns a zeroed array.
func New(rows, cols int) *Array {
	if rows <= 0 || cols <= 0 {
		panic("crossbar: non-positive dimensions")
	}
	return &Array{Rows: rows, Cols: cols, cells: make([]uint16, rows*cols)}
}

// Set programs cell (r, c) to state v.
func (a *Array) Set(r, c int, v uint16) { a.cells[a.idx(r, c)] = v }

// At returns the state of cell (r, c).
func (a *Array) At(r, c int) uint16 { return a.cells[a.idx(r, c)] }

func (a *Array) idx(r, c int) int {
	if r < 0 || r >= a.Rows || c < 0 || c >= a.Cols {
		panic(fmt.Sprintf("crossbar: cell (%d,%d) outside %dx%d", r, c, a.Rows, a.Cols))
	}
	return r*a.Cols + c
}

// ProgramWindow copies a rectangle of a decomposed cell matrix into the
// array starting at the array's origin: array cell (r, c) gets
// cm[rowOff+r][colOff+c]. Out-of-range source positions program zero.
func (a *Array) ProgramWindow(cm *quant.CellMatrix, rowOff, colOff int) {
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			sr, sc := rowOff+r, colOff+c
			var v uint16
			if sr < cm.Rows && sc < cm.PhysCols {
				v = cm.Cell(sr, sc)
			}
			a.cells[r*a.Cols+c] = v
		}
	}
}

// ReadOU performs one OU cycle: wordlines listed in active (at most the
// OU height, enforced by the caller) are driven with drive[row] and the
// bitlines [colLo, colHi) accumulate Σ drive·cell. This is the ideal
// (noise-free) read; ReadOUNoisy sends each bitline through the device
// channel instead.
func (a *Array) ReadOU(active []int, drive func(row int) uint16, colLo, colHi int) []int64 {
	if colLo < 0 || colHi > a.Cols || colLo >= colHi {
		panic("crossbar: bad column range")
	}
	a.idealReads.Add(1)
	out := make([]int64, colHi-colLo)
	for _, r := range active {
		d := int64(drive(r))
		if d == 0 {
			continue
		}
		row := a.cells[r*a.Cols : (r+1)*a.Cols]
		for c := colLo; c < colHi; c++ {
			out[c-colLo] += d * int64(row[c])
		}
	}
	return out
}

// ReadOUNoisy is ReadOU through the Monte-Carlo device/ADC channel
// (1-bit drivers only).
func (a *Array) ReadOUNoisy(active []int, drive func(row int) uint16, colLo, colHi int,
	cell reram.Cell, rng *xrand.RNG) []int64 {
	a.noisyReads.Add(1)
	states := make([]uint16, len(active))
	bits := make([]uint16, len(active))
	out := make([]int64, colHi-colLo)
	for c := colLo; c < colHi; c++ {
		for i, r := range active {
			states[i] = a.cells[r*a.Cols+c]
			bits[i] = drive(r)
		}
		out[c-colLo] = int64(cell.SenseSum(states, bits, rng))
	}
	return out
}

// ReadCounts returns how many OU reads the array has served, split into
// ideal (ReadOU) and noisy (ReadOUNoisy) reads.
func (a *Array) ReadCounts() (ideal, noisy int64) {
	return a.idealReads.Load(), a.noisyReads.Load()
}

// PublishMetrics adds the array's read counts to the shard's
// `sre_crossbar_reads_total{kind=...}` counters. Call it at reduction
// time (the counts keep accumulating; publish once per array per run).
func (a *Array) PublishMetrics(sh *metrics.Shard) {
	ideal, noisy := a.ReadCounts()
	sh.Counter(`sre_crossbar_reads_total{kind="ideal"}`).Add(ideal)
	sh.Counter(`sre_crossbar_reads_total{kind="noisy"}`).Add(noisy)
}

// ColGroup is one column-wise OU group: a bitline range plus the ordered
// list of wordlines carrying (possibly compressed) weights for it. For an
// uncompressed layout Rows is simply 0..Rows-1; ORC removes the rows
// whose cells are all zero within the group.
type ColGroup struct {
	ColLo, ColHi int
	Rows         []int
}

// Schedule is a full per-array execution plan: one ColGroup per S_BL-wide
// bitline slice.
type Schedule struct {
	Groups []ColGroup
}

// DenseSchedule returns the uncompressed plan for an array with the given
// OU width.
func DenseSchedule(rows, cols, sBL int) Schedule {
	var s Schedule
	for lo := 0; lo < cols; lo += sBL {
		hi := lo + sBL
		if hi > cols {
			hi = cols
		}
		g := ColGroup{ColLo: lo, ColHi: hi, Rows: make([]int, rows)}
		for i := range g.Rows {
			g.Rows[i] = i
		}
		s.Groups = append(s.Groups, g)
	}
	return s
}

// Result of an Execute run.
type Result struct {
	// Phys[c] = Σ_r input[r]·cell[r][c] reassembled over input bit
	// slices, per physical column.
	Phys []uint64
	// Cycles is the number of OU activations consumed.
	Cycles int
}

// Execute runs the full decomposed computation on one array.
//
// inputs[r] is the quantized activation code feeding wordline r (length
// a.Rows; rows beyond the schedule's row lists are ignored). p gives the
// decomposition; sWL is the OU height. When dof is true, only wordlines
// whose current slice value is non-zero are activated (Dynamic OU
// Formation, Fig. 9); otherwise every scheduled wordline occupies an OU
// slot and an OU whose drive values are all zero still costs its cycle —
// exactly the baseline behaviour the paper improves on.
func Execute(a *Array, inputs []uint32, p quant.Params, sWL int, sched Schedule, dof bool) Result {
	if len(inputs) != a.Rows {
		panic("crossbar: inputs length must equal array rows")
	}
	if sWL <= 0 {
		panic("crossbar: non-positive OU height")
	}
	spi := p.SlicesPerInput()
	res := Result{Phys: make([]uint64, a.Cols)}
	sliceBuf := make([]uint16, spi)
	// Pre-decompose every input once.
	slices := make([][]uint16, a.Rows)
	for r := range slices {
		p.DecomposeSlices(inputs[r], sliceBuf)
		slices[r] = append([]uint16(nil), sliceBuf...)
	}
	for si := 0; si < spi; si++ {
		drive := func(row int) uint16 { return slices[row][si] }
		for _, g := range sched.Groups {
			rows := g.Rows
			if dof {
				rows = filterNonZero(rows, drive)
			}
			for lo := 0; lo < len(rows); lo += sWL {
				hi := lo + sWL
				if hi > len(rows) {
					hi = len(rows)
				}
				part := a.ReadOU(rows[lo:hi], drive, g.ColLo, g.ColHi)
				res.Cycles++
				shift := uint(si * p.DACBits)
				for i, v := range part {
					res.Phys[g.ColLo+i] += uint64(v) << shift
				}
			}
		}
	}
	return res
}

func filterNonZero(rows []int, drive func(int) uint16) []int {
	out := make([]int, 0, len(rows))
	for _, r := range rows {
		if drive(r) != 0 {
			out = append(out, r)
		}
	}
	return out
}

// ComposeLogical folds physical-column results into logical outputs:
// logical column c's value is Σ_j phys[c·cpw+j] · 2^(j·cellBits).
func ComposeLogical(phys []uint64, p quant.Params) []uint64 {
	cpw := p.CellsPerWeight()
	if len(phys)%cpw != 0 {
		panic("crossbar: physical column count not a multiple of cells-per-weight")
	}
	out := make([]uint64, len(phys)/cpw)
	for c := range out {
		var v uint64
		for j := 0; j < cpw; j++ {
			v += phys[c*cpw+j] << uint(j*p.CellBits)
		}
		out[c] = v
	}
	return out
}

// ReferenceProduct computes the integer matrix–vector product
// Σ_r q_in[r]·q_w[r][c] directly from a quantized matrix — the oracle
// Execute must match.
func ReferenceProduct(m *quant.Matrix, inputs []uint32) []uint64 {
	if len(inputs) != m.Rows {
		panic("crossbar: reference input length mismatch")
	}
	out := make([]uint64, m.Cols)
	for r := 0; r < m.Rows; r++ {
		in := uint64(inputs[r])
		if in == 0 {
			continue
		}
		for c := 0; c < m.Cols; c++ {
			out[c] += in * uint64(m.At(r, c))
		}
	}
	return out
}
