// Per-mode benchmarks of the core simulator's hot path, plus the
// retained scalar-reference variants. `make bench` runs these and
// records the numbers in BENCH_PR2.json; comparing
// BenchmarkSimulateLayer/<mode> against
// BenchmarkSimulateLayerScalar/<mode> shows the word-plane kernel and
// plan-cache speedup (and the allocs/op drop) within a single run.
package sre_test

import (
	"context"
	"testing"

	"sre/internal/compress"
	"sre/internal/core"
	"sre/internal/mapping"
	"sre/internal/quant"
	"sre/internal/tensor"
	"sre/internal/xrand"
)

// benchActs is a read-only window source, so concurrent WindowCodes
// calls are safe.
type benchActs struct{ rows [][]uint32 }

func (s *benchActs) Windows() int { return len(s.rows) }

func (s *benchActs) WindowCodes(w int, dst []uint32) { copy(dst, s.rows[w]) }

// benchLayer builds the same shape as the core package's hot-path
// micro-benchmark: 512 rows, 64 logical columns, 70% weight sparsity,
// 16 windows of 60%-sparse activations.
func benchLayer(tb testing.TB) core.Layer {
	tb.Helper()
	p := quant.Default()
	g := mapping.Default()
	r := xrand.New(99)
	w := tensor.New(512, 64)
	for row := 0; row < 512; row++ {
		for c := 0; c < 64; c++ {
			if !r.Bernoulli(0.7) {
				w.Set(float32(r.Float64()*2-1), row, c)
			}
		}
	}
	st := compress.Build(compress.NewFloatSource(w, p), p, g)
	ra := xrand.New(7)
	src := &benchActs{}
	for wi := 0; wi < 16; wi++ {
		v := make([]uint32, 512)
		for i := range v {
			if !ra.Bernoulli(0.6) {
				v[i] = uint32(ra.Intn(1 << 16))
			}
		}
		src.rows = append(src.rows, v)
	}
	return core.Layer{Name: "bench", Struct: st, Acts: src}
}

// kernelModes are the eight Modes() registry modes (OCC, the opt-in
// ninth, is not a kernel path: it has no phase 1 and no scalar variant).
var kernelModes = []core.Mode{core.ModeBaseline, core.ModeNaive, core.ModeReCom, core.ModeORC,
	core.ModeDOF, core.ModeORCDOF, core.ModeWSS, core.ModeORCDOFWSS}

func benchSimulateLayer(b *testing.B, scalar bool) {
	layer := benchLayer(b)
	ctx := context.Background()
	for _, mode := range kernelModes {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Mode = mode
			cfg.MaxWindows = 0
			cfg.Workers = 1
			cfg.ScalarReference = scalar
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SimulateLayerContext(ctx, layer, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulateLayer is the kernel path (word-plane phase 1 over
// the memoized plan cache).
func BenchmarkSimulateLayer(b *testing.B) { benchSimulateLayer(b, false) }

// BenchmarkSimulateLayerScalar is the pre-kernel scalar reference, kept
// for golden-equality testing; its ratio to BenchmarkSimulateLayer is
// the PR's headline speedup.
func BenchmarkSimulateLayerScalar(b *testing.B) { benchSimulateLayer(b, true) }
