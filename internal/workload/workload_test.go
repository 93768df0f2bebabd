package workload

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"sre/internal/core"
	"sre/internal/mapping"
	"sre/internal/parallel"
	"sre/internal/quant"
)

func TestAllSpecsParse(t *testing.T) {
	for _, s := range Specs() {
		net, err := s.Network()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		out, err := net.Validate()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		want := 10
		if s.Large {
			want = 1000
		}
		if out[len(out)-1] != want {
			t.Fatalf("%s output shape %v", s.Name, out)
		}
	}
}

func TestSpecByName(t *testing.T) {
	if _, err := SpecByName("VGG-16"); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("accepted unknown network")
	}
}

func TestTable2IndexBits(t *testing.T) {
	// §6: 5,5,5,5,3,3 bits in Table 2 order.
	want := []int{5, 5, 5, 5, 3, 3}
	for i, s := range Specs() {
		if s.IndexBits != want[i] {
			t.Fatalf("%s index bits = %d, want %d", s.Name, s.IndexBits, want[i])
		}
	}
}

func TestParameterCounts(t *testing.T) {
	// Sanity-pin the topologies to the well-known parameter counts.
	want := map[string][2]int64{ // name → {min, max} weights
		"MNIST":     {420_000, 440_000},
		"CaffeNet":  {58_000_000, 64_000_000},
		"VGG-16":    {130_000_000, 145_000_000},
		"GoogLeNet": {5_500_000, 7_500_000},
		"ResNet-50": {23_000_000, 27_000_000},
	}
	for _, s := range Specs() {
		bounds, ok := want[s.Name]
		if !ok {
			continue
		}
		net, err := s.Network()
		if err != nil {
			t.Fatal(err)
		}
		wc := net.WeightCount()
		if wc < bounds[0] || wc > bounds[1] {
			t.Fatalf("%s weight count %d outside [%d, %d]", s.Name, wc, bounds[0], bounds[1])
		}
	}
}

func TestBuildSmallNetworkSparsities(t *testing.T) {
	s, _ := SpecByName("MNIST")
	b, err := s.Build(SSL, quant.Default(), mapping.Default(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Layers) != 4 {
		t.Fatalf("MNIST has %d matrix layers", len(b.Layers))
	}
	// Every layer needs a structure and an activation source with the
	// right geometry.
	for i, l := range b.Layers {
		if l.Struct.Layout.Rows != b.Infos[i].Rows {
			t.Fatalf("layer %s: structure rows %d != %d", l.Name, l.Struct.Layout.Rows, b.Infos[i].Rows)
		}
		if l.Acts.Windows() != b.Infos[i].Windows {
			t.Fatalf("layer %s: windows mismatch", l.Name)
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	s, _ := SpecByName("CIFAR-10")
	a, err := s.Build(SSL, quant.Default(), mapping.Default(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build(SSL, quant.Default(), mapping.Default(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Layers {
		ra := a.Layers[i].Struct.CompressionRatio(2, 0) // ReCom as a digest
		rb := b.Layers[i].Struct.CompressionRatio(2, 0)
		if ra != rb {
			t.Fatal("builds differ across runs with the same seed")
		}
	}
	codesA := make([]uint32, a.Infos[0].Rows)
	codesB := make([]uint32, a.Infos[0].Rows)
	a.Layers[0].Acts.WindowCodes(3, codesA)
	b.Layers[0].Acts.WindowCodes(3, codesB)
	for i := range codesA {
		if codesA[i] != codesB[i] {
			t.Fatal("activation streams differ across runs")
		}
	}
}

func TestSyntheticActsSparsity(t *testing.T) {
	acts := &SyntheticActs{Rows: 5000, NWindows: 4, Sparsity: 0.4, Octaves: 4, ABits: 16, Seed: 3}
	codes := make([]uint32, 5000)
	acts.WindowCodes(0, codes)
	zeros := 0
	for _, c := range codes {
		if c == 0 {
			zeros++
		}
	}
	got := float64(zeros) / 5000
	if math.Abs(got-0.4) > 0.03 {
		t.Fatalf("activation sparsity %v, want ~0.4", got)
	}
}

func TestOctavesSkewSliceDensity(t *testing.T) {
	p := quant.Default()
	mk := func(octaves float64) float64 {
		acts := &SyntheticActs{Rows: 4000, NWindows: 8, Sparsity: 0.4, Octaves: octaves, ABits: 16, Seed: 5}
		return MeanSliceDensity(acts, 4000, p, 8)
	}
	d0, d8 := mk(0), mk(8)
	if d8 >= d0 {
		t.Fatalf("more octaves must lower slice density: %v vs %v", d0, d8)
	}
	if d0 <= 0 || d0 >= 0.5 {
		t.Fatalf("zero-octave density %v implausible", d0)
	}
}

func TestGSLVsSSLStructure(t *testing.T) {
	s, _ := SpecByName("CIFAR-10")
	p, g := quant.Default(), mapping.Default()
	ssl, err := s.Build(SSL, p, g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	gsl, err := s.Build(GSL, p, g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// SSL must yield a higher ORC compression ratio than GSL at the same
	// order of total sparsity (the Fig. 17 vs Fig. 23 contrast).
	var sslRatio, gslRatio float64
	for i := range ssl.Layers {
		sslRatio += ssl.Layers[i].Struct.CompressionRatio(3, 0) // ORC
		gslRatio += gsl.Layers[i].Struct.CompressionRatio(3, 0)
	}
	if sslRatio <= gslRatio {
		t.Fatalf("SSL ORC ratio %v should beat GSL %v", sslRatio, gslRatio)
	}
}

func TestISAACInputs(t *testing.T) {
	s, _ := SpecByName("MNIST")
	b, err := s.Build(SSL, quant.Default(), mapping.Default(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := b.ISAACInputs()
	if len(in) != len(b.Layers) {
		t.Fatal("ISAAC inputs length mismatch")
	}
	for i := range in {
		if in[i].Windows != b.Layers[i].Acts.Windows() {
			t.Fatal("window mismatch")
		}
	}
}

func TestNoPruneKeepsWeightsDense(t *testing.T) {
	s, _ := SpecByName("MNIST")
	b, err := s.Build(NoPrune, quant.Default(), mapping.Default(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp := b.WeightSparsityBuilt(); sp > 0.01 {
		t.Fatalf("dense build has sparsity %v", sp)
	}
}

func TestWeightSparsityBuiltTracksTarget(t *testing.T) {
	for _, name := range []string{"MNIST", "CIFAR-10"} {
		s, _ := SpecByName(name)
		b, err := s.Build(SSL, quant.Default(), mapping.Default(), 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := b.WeightSparsityBuilt()
		if math.Abs(got-s.WeightSparsity) > 0.08 {
			t.Fatalf("%s built sparsity %.3f vs Table 2 %.3f", name, got, s.WeightSparsity)
		}
	}
}

func TestSNrramCellsPositive(t *testing.T) {
	s, _ := SpecByName("CIFAR-10")
	b, err := s.Build(SSL, quant.Default(), mapping.Default(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, st := range b.Stats {
		total += st.WeightTotal
	}
	cells := b.SNrramCells()
	if cells <= 0 || cells > total*int64(quant.Default().CellsPerWeight()) {
		t.Fatalf("SNrram cells %d out of range", cells)
	}
}

func TestBuildOCCStructuresAligned(t *testing.T) {
	s, _ := SpecByName("MNIST")
	p, g := quant.Default(), mapping.Default()
	b, err := s.Build(SSL, p, g, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := s.AttachOCC(b.Layers, SSL, p, g, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != len(b.Layers) {
		t.Fatalf("OCC layers %d vs layers %d", len(layers), len(b.Layers))
	}
	for i, l := range layers {
		if b.Layers[i].OCC != nil {
			t.Fatal("AttachOCC modified the built layers instead of a copy")
		}
		if l.OCC.Layout.Rows != l.Struct.Layout.Rows {
			t.Fatalf("layer %d geometry mismatch", i)
		}
		// Same weights → OCC's compressed cells can never exceed totals.
		if l.OCC.CompressedCells() > l.OCC.Layout.TotalCells() {
			t.Fatal("OCC kept more cells than exist")
		}
	}
	if _, err := s.AttachOCC(b.Layers[:1], SSL, p, g, 6, nil); err == nil {
		t.Fatal("AttachOCC accepted a layer slice of the wrong length")
	}
}

// TestOCCSeesBuildWeights checks that AttachOCC saw exactly the
// weights Build compressed: a row band of a tile keeps an OCC column
// exactly when the row structure records a non-zero row inside it. The
// geometry is narrow so the check has teeth: 4-row bands of few weights
// are often empty, and a 4-cell-wide crossbar holds half a weight's
// cells, so a tile of the high-order cells is empty exactly when the
// slice cap applies.
func TestOCCSeesBuildWeights(t *testing.T) {
	p := quant.Default()
	g := mapping.Geometry{XbarRows: 128, XbarCols: 4, SWL: 4, SBL: 4}
	for _, name := range []string{"MNIST", "CIFAR-10"} {
		for _, mode := range []PruneMode{SSL, GSL} {
			for _, sliceCap := range []int{0, 2} {
				s, err := SpecByName(name)
				if err != nil {
					t.Fatal(err)
				}
				s.SliceCap = sliceCap
				b, err := s.Build(mode, p, g, 3, nil)
				if err != nil {
					t.Fatal(err)
				}
				layers, err := s.AttachOCC(b.Layers, mode, p, g, 3, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range layers {
					lay := l.Struct.Layout
					for rb := 0; rb < lay.RowBlocks; rb++ {
						for cb := 0; cb < lay.ColBlocks; cb++ {
							rows := l.Struct.TileNonZeroRows(rb, cb)
							for band := 0; band < l.OCC.Bands(rb); band++ {
								rowNZ := rows.CountRange(band*g.SWL, (band+1)*g.SWL) > 0
								colNZ := l.OCC.BandRetainedCols(rb, cb, band) > 0
								if rowNZ != colNZ {
									t.Fatalf("%s/%v/cap%d layer %s tile (%d,%d) band %d: row structure non-zero %v, OCC %v",
										name, mode, sliceCap, l.Name, rb, cb, band, rowNZ, colNZ)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestBuildWidthInvariant checks the layer-parallel build and OCC
// attach against their one-worker runs: same per-layer stats and
// identical OCC structures at width 8. (The snapshot-digest test in
// package sre pins the full built bytes.)
func TestBuildWidthInvariant(t *testing.T) {
	p, g := quant.Default(), mapping.Default()
	for _, name := range []string{"MNIST", "CIFAR-10"} {
		for _, mode := range []PruneMode{SSL, GSL} {
			s, err := SpecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var stats [2][]LayerStats
			var occ [2][]core.Layer
			for i, workers := range []int{1, 8} {
				b, err := s.Build(mode, p, g, 5, parallel.New(workers))
				if err != nil {
					t.Fatal(err)
				}
				stats[i] = b.Stats
				if occ[i], err = s.AttachOCC(b.Layers, mode, p, g, 5, parallel.New(workers)); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(stats[0], stats[1]) {
				t.Fatalf("%s/%v: layer stats differ between 1 and 8 workers", name, mode)
			}
			for i := range occ[0] {
				if !reflect.DeepEqual(occ[0][i].OCC, occ[1][i].OCC) {
					t.Fatalf("%s/%v layer %s: OCC structures differ between 1 and 8 workers", name, mode, occ[0][i].Name)
				}
			}
		}
	}
}

// TestBuildPanicIsError: a layer whose build panics (here, an OU
// height the mapper rejects) fails Build with the recovered panic at
// every width instead of killing the process.
func TestBuildPanicIsError(t *testing.T) {
	s, _ := SpecByName("MNIST")
	g := mapping.Default()
	g.SWL = 0
	for _, pool := range []*parallel.Pool{nil, parallel.New(4)} {
		var pe *parallel.PanicError
		if _, err := s.Build(SSL, quant.Default(), g, 1, pool); !errors.As(err, &pe) {
			t.Fatalf("width %d: err = %v, want a *parallel.PanicError", pool.Workers(), err)
		}
	}
}

func TestOutputBitsSet(t *testing.T) {
	s, _ := SpecByName("MNIST")
	b, err := s.Build(SSL, quant.Default(), mapping.Default(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range b.Layers {
		want := int64(b.Infos[i].Windows) * int64(b.Infos[i].Cols) * 16
		if l.OutputBits != want {
			t.Fatalf("layer %s OutputBits %d, want %d", l.Name, l.OutputBits, want)
		}
	}
}

func TestMeanSliceDensityEdges(t *testing.T) {
	p := quant.Default()
	empty := &SyntheticActs{Rows: 0, NWindows: 1, ABits: 16, Seed: 1}
	if d := MeanSliceDensity(empty, 0, p, 1); d != 0 {
		t.Fatalf("empty density %v", d)
	}
	allZero := &SyntheticActs{Rows: 100, NWindows: 3, Sparsity: 1, Octaves: 2, ABits: 16, Seed: 2}
	if d := MeanSliceDensity(allZero, 100, p, 0); d != 0 {
		t.Fatalf("all-zero density %v", d)
	}
}
