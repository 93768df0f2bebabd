package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sre/internal/mapping"
	"sre/internal/metrics"
	"sre/internal/quant"
	"sre/internal/xrand"
)

// cloneableSource is a sliceSource whose workers get private views, so
// the golden test exercises the parallel phase-1 shards too.
type cloneableSource struct{ sliceSource }

func (c *cloneableSource) CloneSource() ActivationSource {
	d := *c
	return &d
}

// scratchSource is a non-cloneable sliceSource that stages every
// window through one shared buffer, as TensorSource stages its im2col
// gather: two concurrent readers race on it.
type scratchSource struct {
	sliceSource
	buf []uint32
}

func (s *scratchSource) WindowCodes(w int, dst []uint32) {
	s.buf = append(s.buf[:0], s.rows[w]...)
	copy(dst, s.buf)
}

// goldenLayer builds a multi-tile layer: 200 rows → two row blocks
// (128 + a non-word-aligned 72), 20 logical columns → 160 physical →
// two column blocks, sparse weights and activations, several windows.
func goldenLayer(t *testing.T) Layer {
	t.Helper()
	p := quant.Default()
	g := mapping.Default()
	st, _, _ := smallCase(13, 200, 20, p, g, 0.65, 0)
	return Layer{Name: "golden", Struct: st, Acts: &cloneableSource{goldenActs(17, 9)}}
}

// goldenActs draws sparse 16-bit activation codes for goldenLayer's 200
// rows over the given number of windows.
func goldenActs(seed uint64, windows int) sliceSource {
	r := xrand.New(seed)
	var src sliceSource
	for w := 0; w < windows; w++ {
		v := make([]uint32, 200)
		for i := range v {
			if !r.Bernoulli(0.55) {
				v[i] = uint32(r.Intn(1 << 16))
			}
		}
		src.rows = append(src.rows, v)
	}
	return src
}

// TestGoldenKernelMatchesScalar is the tentpole's bit-identity proof:
// for every mode and worker count, the word-plane kernel path must
// produce exactly the results of the retained scalar reference — same
// Cycles, Stalls, OUEvents, Fetches, and bit-for-bit the same Energy
// floats.
func TestGoldenKernelMatchesScalar(t *testing.T) {
	layer := goldenLayer(t)
	ctx := context.Background()
	modes := []Mode{ModeBaseline, ModeNaive, ModeReCom, ModeORC, ModeDOF, ModeORCDOF, ModeWSS, ModeORCDOFWSS}
	for _, mode := range modes {
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.MaxWindows = 0
			cfg.Workers = workers
			kernel, err := SimulateLayerContext(ctx, layer, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d kernel: %v", mode, workers, err)
			}
			cfg.ScalarReference = true
			scalar, err := SimulateLayerContext(ctx, layer, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d scalar: %v", mode, workers, err)
			}
			if kernel != scalar {
				t.Fatalf("%v workers=%d: kernel %+v != scalar %+v", mode, workers, kernel, scalar)
			}
		}
	}
}

// TestGoldenBatchMatchesScalar checks the batched engine against the
// only oracle independent of it: each batch input's result must equal
// a ScalarReference run of that input alone, field for field, for
// every mode and worker count. The whole batch also runs under the
// scalar reference, which must agree input by input. The batches cover
// each phase-1 route: the layer's own cached source (dynamic sharding
// over the code plane), substituted cloneable sources (static
// sharding), a non-cloneable source (one serial shard), a source with a
// different window count (one run per input), and a cached layer whose
// own source is not cloneable (dynamic sharding whose shards must read
// the code plane, never that source; -race reports a shared read).
func TestGoldenBatchMatchesScalar(t *testing.T) {
	ctx := context.Background()
	cloneable := func(seed uint64) ActivationSource { return &cloneableSource{goldenActs(seed, 9)} }
	plain := func(seed uint64, windows int) ActivationSource {
		src := goldenActs(seed, windows)
		return &src
	}
	batches := []struct {
		name    string
		own     ActivationSource   // the layer's own source; nil = goldenLayer's cloneable one
		sources []ActivationSource // nil = the layer's own source
	}{
		{"cached", nil, []ActivationSource{nil, nil, nil, nil}},
		{"cloneable", nil, []ActivationSource{nil, cloneable(21), cloneable(22), cloneable(23)}},
		{"non-cloneable", nil, []ActivationSource{nil, cloneable(31), plain(32, 9), plain(33, 9)}},
		{"window-mismatch", nil, []ActivationSource{nil, cloneable(41), plain(42, 9), plain(43, 5)}},
		{"cached-own-non-cloneable", &scratchSource{sliceSource: goldenActs(17, 9)}, []ActivationSource{nil, nil, nil}},
	}
	modes := []Mode{ModeBaseline, ModeNaive, ModeReCom, ModeORC, ModeDOF, ModeORCDOF, ModeWSS, ModeORCDOFWSS}
	for _, bt := range batches {
		layer := goldenLayer(t)
		if bt.own != nil {
			layer.Acts = bt.own
		}
		layer.Codes = NewCodePlanes()
		batch := make([]BatchInput, len(bt.sources))
		for j, src := range bt.sources {
			if src != nil {
				batch[j].Sources = []ActivationSource{src}
			}
		}
		for _, mode := range modes {
			for _, workers := range []int{1, 4} {
				cfg := DefaultConfig()
				cfg.Mode = mode
				cfg.MaxWindows = 0
				cfg.Workers = workers
				got, err := SimulateNetworkBatchContext(ctx, []Layer{layer}, cfg, batch)
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", bt.name, mode, workers, err)
				}
				scfg := cfg
				scfg.ScalarReference = true
				sgot, err := SimulateNetworkBatchContext(ctx, []Layer{layer}, scfg, batch)
				if err != nil {
					t.Fatalf("%s %v workers=%d scalar batch: %v", bt.name, mode, workers, err)
				}
				for j, src := range bt.sources {
					alone := layer
					if src != nil {
						alone.Acts, alone.Codes = src, nil
					}
					want, err := SimulateNetworkContext(ctx, []Layer{alone}, scfg)
					if err != nil {
						t.Fatalf("%s %v workers=%d input %d scalar: %v", bt.name, mode, workers, j, err)
					}
					if !reflect.DeepEqual(got[j], want) {
						t.Fatalf("%s %v workers=%d input %d: batched %+v != scalar %+v",
							bt.name, mode, workers, j, got[j], want)
					}
					if !reflect.DeepEqual(sgot[j], want) {
						t.Fatalf("%s %v workers=%d input %d: scalar batch %+v != scalar alone %+v",
							bt.name, mode, workers, j, sgot[j], want)
					}
				}
			}
		}
	}
}

// TestGoldenSampledWindows repeats the identity with window sampling
// engaged (sampled stride indexing is part of the phase-1 contract).
func TestGoldenSampledWindows(t *testing.T) {
	layer := goldenLayer(t)
	ctx := context.Background()
	for _, mode := range []Mode{ModeDOF, ModeORCDOF} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.MaxWindows = 4
		cfg.Workers = 3
		kernel, err := SimulateLayerContext(ctx, layer, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ScalarReference = true
		scalar, err := SimulateLayerContext(ctx, layer, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if kernel != scalar {
			t.Fatalf("%v sampled: kernel %+v != scalar %+v", mode, kernel, scalar)
		}
	}
}

// TestGoldenMeteredIdentical pins the observability guarantee: a run
// with a metrics registry attached produces exactly the LayerResult of
// an unmetered run — same Cycles, Stalls, OUEvents, Fetches, and
// bit-for-bit the same Energy floats — for every mode at several worker
// counts. It also reconciles the recorded counters against the result:
// with sampling disabled the OU-activation counter and the occupancy
// histogram's observation count must both equal the layer's OUEvents.
func TestGoldenMeteredIdentical(t *testing.T) {
	layer := goldenLayer(t)
	ctx := context.Background()
	modes := []Mode{ModeBaseline, ModeNaive, ModeReCom, ModeORC, ModeDOF, ModeORCDOF, ModeWSS, ModeORCDOFWSS}
	for _, mode := range modes {
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.MaxWindows = 0
			cfg.Workers = workers
			plain, err := SimulateLayerContext(ctx, layer, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d unmetered: %v", mode, workers, err)
			}
			cfg.Metrics = metrics.NewRegistry()
			metered, err := SimulateLayerContext(ctx, layer, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d metered: %v", mode, workers, err)
			}
			if metered != plain {
				t.Fatalf("%v workers=%d: metered %+v != unmetered %+v", mode, workers, metered, plain)
			}
			snap := cfg.Metrics.Snapshot()
			ouName := fmt.Sprintf("sre_core_ou_activations_total{mode=%q}", mode.String())
			if got := snap.Counters[ouName]; got != plain.OUEvents {
				t.Fatalf("%v workers=%d: %s = %d, want %d", mode, workers, ouName, got, plain.OUEvents)
			}
			occ, ok := snap.Histograms[occName(mode)]
			if !ok {
				t.Fatalf("%v workers=%d: occupancy histogram missing", mode, workers)
			}
			if occ.Count != plain.OUEvents {
				t.Fatalf("%v workers=%d: occupancy observations %d, want OUEvents %d",
					mode, workers, occ.Count, plain.OUEvents)
			}
			winName := fmt.Sprintf("sre_core_windows_simulated_total{mode=%q}", mode.String())
			if got := snap.Counters[winName]; got != int64(plain.Sampled) {
				t.Fatalf("%v workers=%d: %s = %d, want %d", mode, workers, winName, got, plain.Sampled)
			}
		}
	}
}

// TestGoldenMeteredScalarOccupancy pins the scalar reference path to the
// same occupancy observations as the kernel path.
func TestGoldenMeteredScalarOccupancy(t *testing.T) {
	layer := goldenLayer(t)
	ctx := context.Background()
	for _, mode := range []Mode{ModeNaive, ModeDOF, ModeORCDOF, ModeORCDOFWSS} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.MaxWindows = 0
		cfg.Workers = 2
		cfg.Metrics = metrics.NewRegistry()
		if _, err := SimulateLayerContext(ctx, layer, cfg); err != nil {
			t.Fatal(err)
		}
		kernel := cfg.Metrics.Snapshot().Histograms[occName(mode)]
		cfg.ScalarReference = true
		cfg.Metrics = metrics.NewRegistry()
		if _, err := SimulateLayerContext(ctx, layer, cfg); err != nil {
			t.Fatal(err)
		}
		scalar := cfg.Metrics.Snapshot().Histograms[occName(mode)]
		if fmt.Sprint(kernel) != fmt.Sprint(scalar) {
			t.Fatalf("%v: kernel occupancy %+v != scalar %+v", mode, kernel, scalar)
		}
	}
}

// TestGeometryMismatchErrors pins the error-instead-of-panic contract
// for structures built under a different geometry.
func TestGeometryMismatchErrors(t *testing.T) {
	layer := goldenLayer(t)
	cfg := DefaultConfig()
	cfg.Geometry = cfg.Geometry.WithOU(32)
	if _, err := SimulateLayerContext(context.Background(), layer, cfg); err == nil {
		t.Fatal("expected a geometry-mismatch error")
	}
	if _, err := SimulateNetworkContext(context.Background(), []Layer{layer}, cfg); err == nil {
		t.Fatal("expected the network engine to surface the mismatch")
	}
	cfg = DefaultConfig()
	cfg.Quant.DACBits = 3 // 16 % 3 != 0
	if _, err := SimulateLayerContext(context.Background(), layer, cfg); err == nil {
		t.Fatal("expected a quantization validation error")
	}
}
