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

// scratchSource is a sliceSource that stages every window through one
// shared buffer, so it breaks the ActivationSource concurrency contract:
// two concurrent readers race on it.
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
	acts := goldenActs(17, 9)
	return Layer{Name: "golden", Struct: st, Acts: &acts}
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

// TestGoldenRoutesMatchScalar checks every phase-1 route of the layer
// engine against the only oracle independent of it: each route's layer
// runs alone, and the kernel result must equal a ScalarReference run of
// the same layer, field for field, for every mode and worker count. The
// routes are the layer's own cached source (phase 1 reads the code and
// mask planes), a substituted source with no code plane (phase 1 reads
// the source per window), a substituted source whose window count
// differs from the layer's, and a cached layer whose own source is not
// safe for concurrent use (phase 1 must read the code plane, never that
// source; -race reports a shared read).
func TestGoldenRoutesMatchScalar(t *testing.T) {
	ctx := context.Background()
	substituted := func(seed uint64, windows int) func(*Layer) {
		return func(l *Layer) {
			src := goldenActs(seed, windows)
			l.Acts, l.Codes = &src, nil
		}
	}
	routes := []struct {
		name  string
		setup func(*Layer)
	}{
		{"cached", func(*Layer) {}},
		{"substituted", substituted(21, 9)},
		{"window-mismatch", substituted(41, 5)},
		{"cached-own-scratch", func(l *Layer) { l.Acts = &scratchSource{sliceSource: goldenActs(17, 9)} }},
	}
	modes := []Mode{ModeBaseline, ModeNaive, ModeReCom, ModeORC, ModeDOF, ModeORCDOF, ModeWSS, ModeORCDOFWSS}
	for _, rt := range routes {
		layer := goldenLayer(t)
		layer.Codes = NewCodePlanes()
		rt.setup(&layer)
		for _, mode := range modes {
			for _, workers := range []int{1, 4} {
				cfg := DefaultConfig()
				cfg.Mode = mode
				cfg.MaxWindows = 0
				cfg.Workers = workers
				got, err := SimulateNetworkContext(ctx, []Layer{layer}, cfg)
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", rt.name, mode, workers, err)
				}
				cfg.ScalarReference = true
				want, err := SimulateNetworkContext(ctx, []Layer{layer}, cfg)
				if err != nil {
					t.Fatalf("%s %v workers=%d scalar: %v", rt.name, mode, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v workers=%d: kernel %+v != scalar %+v", rt.name, mode, workers, got, want)
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
