// Per-worker scratch arenas: simulateLayer's transient state — the
// per-tile plan grid, phase-1 DOF batch slots, phase-2 tile
// accumulators, and each phase-1 worker's mask/count scratch — is
// recycled through sync.Pools instead of being reallocated per call.
// A six-mode sweep calls simulateLayer 6·layers times and phase 1
// checks scratch out once per window chunk, so steady-state allocation
// drops by an order of magnitude while ownership stays strict: a
// scratch block is held by exactly one goroutine between get and
// release, and everything a later phase reads is either fully
// overwritten (work slots) or explicitly zeroed at checkout (tile
// plans, accumulators).
//
// The pools' New hooks are deliberately left nil so a miss is
// observable: sre_core_arena_gets_total counts checkouts,
// sre_core_arena_news_total counts the misses that had to allocate.
package core

import (
	"sync"

	"sre/internal/bitset"
	"sre/internal/mapping"
	"sre/internal/metrics"
)

// arenaMetrics feeds the arena observability counters. Fields may be
// nil (metrics.Counter methods are nil-safe no-ops).
type arenaMetrics struct {
	gets, news *metrics.Counter
}

// tileAcc is one tile's phase-2 accumulator: the pipeline schedule
// totals and energy-relevant event counts phase 3 reduces serially.
type tileAcc struct {
	total    int64
	stalls   int64
	ouEvents int64
	drivenWL int64
	fetches  int64
	fetchE   float64
}

// layerScratch is one simulateLayer call's allocation block: the plan
// grid, DOF work slots, and tile accumulators, sized (and re-zeroed
// where required) per checkout. Every simulateLayer call runs on one.
type layerScratch struct {
	planBack []tilePlan
	planRows [][]tilePlan
	work     []batchWork
	accs     []tileAcc
}

var layerScratchPool sync.Pool

// getLayerScratch checks a scratch block out of the pool, allocating
// one on a miss.
func getLayerScratch(am arenaMetrics) *layerScratch {
	am.gets.Inc()
	if v := layerScratchPool.Get(); v != nil {
		return v.(*layerScratch)
	}
	am.news.Inc()
	return &layerScratch{}
}

func (ls *layerScratch) release() { layerScratchPool.Put(ls) }

// tilePlans returns a zeroed [rowBlocks][colBlocks] plan grid backed by
// one contiguous array. Zeroing matters: a recycled block may hold a
// previous run's plan pointers, and recordStaticOccupancy dispatches on
// which tilePlan fields are non-nil.
func (ls *layerScratch) tilePlans(rowBlocks, colBlocks int) [][]tilePlan {
	n := rowBlocks * colBlocks
	if cap(ls.planBack) < n {
		ls.planBack = make([]tilePlan, n)
	} else {
		ls.planBack = ls.planBack[:n]
		for i := range ls.planBack {
			ls.planBack[i] = tilePlan{}
		}
	}
	ls.planRows = resize(ls.planRows, rowBlocks)
	for rb := 0; rb < rowBlocks; rb++ {
		ls.planRows[rb] = ls.planBack[rb*colBlocks : (rb+1)*colBlocks]
	}
	return ls.planRows
}

// workSlots returns n batch-work slots. They are not cleared: phase 1
// writes every slot for every sampled window before phase 2 reads any,
// and on early cancellation the layer errors out before the read.
func (ls *layerScratch) workSlots(n int) []batchWork {
	ls.work = resize(ls.work, n)
	return ls.work
}

// tileAccs returns n zeroed tile accumulators (phase 2 accumulates
// into them, so stale totals would corrupt results).
func (ls *layerScratch) tileAccs(n int) []tileAcc {
	if cap(ls.accs) < n {
		ls.accs = make([]tileAcc, n)
		return ls.accs
	}
	ls.accs = ls.accs[:n]
	for i := range ls.accs {
		ls.accs[i] = tileAcc{}
	}
	return ls.accs
}

// p1Scratch is one phase-1 worker's scratch block: the window code
// buffer, the (row block, slice) mask plane and its per-block headers,
// and the per-group count buffers. The layout stamp (lay, spi)
// identifies the shapes; a recycled block with a matching stamp is
// reused as-is because every buffer is fully overwritten per window
// (BuildSliceMasks rewrites each mask's words, CountAndPlanes rewrites
// the counts), and one with another stamp is reshaped in place. It
// also memoizes its metrics shard per registry, so the dynamic window
// loop's many chunk checkouts don't register a shard each.
type p1Scratch struct {
	lay mapping.Layout
	spi int

	codes    []uint32
	backing  []uint64
	masks    [][][]uint64 // [rb][s] -> word mask into backing
	nonEmpty []uint64
	counts   []int
	sliceNZ  []int
	ouTab    []int32 // ouTab[nz] = ceil(nz/SWL), nz in [0, XbarRows]

	reg *metrics.Registry
	sh  *metrics.Shard
}

var p1ScratchPool sync.Pool

// getP1Scratch checks a phase-1 scratch block out of the pool,
// (re)shaping it when the layout stamp differs from the last use.
func getP1Scratch(lay mapping.Layout, spi int, reg *metrics.Registry) *p1Scratch {
	s, _ := p1ScratchPool.Get().(*p1Scratch)
	isNew := s == nil
	if isNew {
		s = &p1Scratch{}
	}
	sh := s.shard(reg)
	sh.Counter(`sre_core_arena_gets_total{arena="phase1"}`).Inc()
	if isNew {
		sh.Counter(`sre_core_arena_news_total{arena="phase1"}`).Inc()
	}
	if s.lay != lay || s.spi != spi {
		s.shape(lay, spi)
	}
	return s
}

func (s *p1Scratch) release() { p1ScratchPool.Put(s) }

// shard returns the worker-private metrics shard for reg, registering
// one only when the registry changes (nil registry -> nil shard; every
// shard operation is nil-safe).
func (s *p1Scratch) shard(reg *metrics.Registry) *metrics.Shard {
	if reg == nil {
		return nil
	}
	if s.reg != reg {
		s.reg = reg
		s.sh = reg.Shard()
	}
	return s.sh
}

// shape sizes every buffer for the given layout, reusing each one's
// capacity like layerScratch.workSlots: a pooled block that moves
// between layers of different layouts reallocates only what outgrows
// it. Mask headers are cut from one backing array; every buffer is
// overwritten before it is read, so stale contents never leak.
func (s *p1Scratch) shape(lay mapping.Layout, spi int) {
	s.lay, s.spi = lay, spi
	s.codes = resize(s.codes, lay.Rows)
	maxWords := bitset.Words64(lay.XbarRows)
	s.backing = resize(s.backing, lay.RowBlocks*spi*maxWords)
	s.masks = resize(s.masks, lay.RowBlocks)
	for rb := range s.masks {
		s.masks[rb] = resize(s.masks[rb], spi)
		words := bitset.Words64(lay.TileRows(rb))
		for sl := 0; sl < spi; sl++ {
			off := (rb*spi + sl) * maxWords
			s.masks[rb][sl] = s.backing[off : off+words]
		}
	}
	s.nonEmpty = resize(s.nonEmpty, lay.RowBlocks)
	maxGroups := 0
	for cb := 0; cb < lay.ColBlocks; cb++ {
		if n := lay.GroupsInTile(cb); n > maxGroups {
			maxGroups = n
		}
	}
	s.counts = resize(s.counts, maxGroups)
	s.sliceNZ = resize(s.sliceNZ, lay.RowBlocks*spi)
	// The metered and Baseline paths compute ceil(nz/S_WL) for every
	// non-zero group count; a lookup table turns the inner loop's
	// hardware division (a ~20% profile cost) into an L1 load. nz never
	// exceeds a tile's rows. The unmetered path's bitset.TileOU folds
	// the ceil into its kernel (a shift for power-of-two S_WL) instead.
	s.ouTab = resize(s.ouTab, lay.XbarRows+1)
	s.ouTab[0] = 0
	for nz := 1; nz <= lay.XbarRows; nz++ {
		s.ouTab[nz] = int32((nz + lay.SWL - 1) / lay.SWL)
	}
}

// resize returns buf with length n, reallocating only when its capacity
// is short. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
