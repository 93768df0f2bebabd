//go:build !race

// Excluded under -race: the race detector drops sync.Pool puts at
// random, so checkouts miss and allocate.

package core

import (
	"testing"

	"sre/internal/mapping"
	"sre/internal/quant"
)

// TestP1ScratchReshapeAllocs checks that a pooled phase-1 block moving
// between layers of different layouts is reshaped in place: once it
// has held both shapes, alternating between them allocates nothing.
func TestP1ScratchReshapeAllocs(t *testing.T) {
	p := quant.Default()
	a := mapping.NewLayout(300, 40, p, mapping.Default())
	b := mapping.NewLayout(1000, 9, p, mapping.Geometry{XbarRows: 64, XbarCols: 64, SWL: 8, SBL: 8})
	if a == b {
		t.Fatal("layouts must differ")
	}
	spiA, spiB := p.SlicesPerInput(), 8
	got := testing.AllocsPerRun(100, func() {
		s := getP1Scratch(a, spiA, nil)
		if len(s.backing) != a.RowBlocks*spiA*2 || len(s.ouTab) != a.XbarRows+1 {
			t.Fatal("block not shaped for layout a")
		}
		s.release()
		s = getP1Scratch(b, spiB, nil)
		if len(s.masks) != b.RowBlocks || len(s.masks[0]) != spiB || len(s.ouTab) != b.XbarRows+1 {
			t.Fatal("block not shaped for layout b")
		}
		s.release()
	})
	if got != 0 {
		t.Errorf("alternating layouts: %.1f allocs per pair, want 0", got)
	}
}
