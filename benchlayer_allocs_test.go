//go:build !race

// Excluded under -race: the race detector drops sync.Pool puts at
// random, so the scratch arenas miss and the counts below rise.

package sre_test

import (
	"context"
	"testing"

	"sre/internal/core"
)

// TestSimulateLayerAllocs gates allocs/op of the single-worker kernel
// path over benchLayer, with no record file: at most 4 per layer for
// the static modes and 7 for the DOF modes, whose per-window scratch
// comes from the pooled arenas. A width-1 pool's For and ForDynamic
// allocate nothing themselves.
func TestSimulateLayerAllocs(t *testing.T) {
	layer := benchLayer(t)
	ctx := context.Background()
	for _, mode := range kernelModes {
		limit := 4.0
		if mode.DOF {
			limit = 7
		}
		cfg := core.DefaultConfig()
		cfg.Mode = mode
		cfg.MaxWindows = 0
		cfg.Workers = 1
		got := testing.AllocsPerRun(50, func() {
			if _, err := core.SimulateLayerContext(ctx, layer, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if got > limit {
			t.Errorf("%v: %.0f allocs/op, want <= %.0f", mode, got, limit)
		}
	}
}
