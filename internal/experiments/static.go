package experiments

import (
	"fmt"

	"sre/internal/compress"
	"sre/internal/core"
	"sre/internal/energy"
	"sre/internal/mapping"
	"sre/internal/quant"
	"sre/internal/synth"
	"sre/internal/workload"
)

// Table1 prints the hardware configuration (paper Table 1).
func Table1(Options) (*Table, error) {
	t := &Table{ID: "table1", Title: "Hardware configuration",
		Header: []string{"component | spec | power"}}
	for _, row := range energy.Default().Table1() {
		t.AddRow(row)
	}
	return t, nil
}

// Table2 prints the evaluated networks with their target and measured
// sparsities (paper Table 2).
func Table2(opt Options) (*Table, error) {
	t := &Table{ID: "table2", Title: "NN topology of evaluated benchmarks",
		Header: []string{"Name", "Wt.sparsity(paper)", "Wt.sparsity(built)",
			"Act.sparsity(paper)", "MatrixLayers", "Weights", "Topology"}}
	p, g := quant.Default(), mapping.Default()
	for _, spec := range specsFor(opt) {
		b, err := build(spec, workload.SSL, p, g, opt)
		if err != nil {
			return nil, err
		}
		var total int64
		for _, s := range b.Stats {
			total += s.WeightTotal
		}
		t.AddRow(spec.Name,
			pct(spec.WeightSparsity), pct(b.WeightSparsityBuilt()), pct(spec.ActSparsity),
			fmt.Sprintf("%d", len(b.Layers)),
			fmt.Sprintf("%d", total),
			spec.Display)
	}
	t.Notes = append(t.Notes,
		"built sparsity is parameter-weighted over synthetic SSL-pruned weights (DESIGN.md §2)")
	return t, nil
}

// Fig4 measures VGG-16 weight and input density after bit decomposition
// as bits-per-cell and DAC resolution vary (paper Fig. 4).
func Fig4(opt Options) (*Table, error) {
	t := &Table{ID: "fig4", Title: "VGG-16 density after decomposition",
		Header: []string{"setting", "value", "non-zero fraction"}}
	spec, err := workload.SpecByName("VGG-16")
	if err != nil {
		return nil, err
	}
	if opt.Quick {
		spec, err = workload.SpecByName("CIFAR-10")
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "quick mode: CIFAR-10 stands in for VGG-16")
	}
	g := mapping.Default()
	// Weight density vs bits per cell (Fig. 4a): fraction of non-zero
	// cells = IdealCells / TotalCells.
	for _, cb := range []int{1, 2, 4, 8} {
		p := quant.Params{WBits: 16, ABits: 16, CellBits: cb, DACBits: 1}
		b, err := build(spec, workload.SSL, p, g, opt)
		if err != nil {
			return nil, err
		}
		ideal, err := core.FootprintOf(b.Layers, compress.Ideal, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow("weight density", fmt.Sprintf("%d bits/cell", cb),
			f3(float64(ideal.Cells)/float64(ideal.TotalCells)))
	}
	// Input density vs DAC resolution (Fig. 4b) over sampled activations.
	for _, dac := range []int{1, 2, 4, 8} {
		p := quant.Params{WBits: 16, ABits: 16, CellBits: 2, DACBits: dac}
		b, err := build(spec, workload.SSL, quant.Default(), g, opt)
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, l := range b.Layers {
			sum += workload.MeanSliceDensity(l.Acts, l.Struct.Layout.Rows, p, 4)
		}
		t.AddRow("input density", fmt.Sprintf("%d-bit DAC", dac), f3(sum/float64(len(b.Layers))))
	}
	t.Notes = append(t.Notes,
		"density falls as cells/slices get narrower — the bit-level sparsity SRE exploits")
	return t, nil
}

// Fig19 reports input-index storage for SRE across OU sizes (paper
// Fig. 19).
func Fig19(opt Options) (*Table, error) {
	t := &Table{ID: "fig19", Title: "Input-index storage overhead vs OU size",
		Header: []string{"network", "OU", "index storage (KB)", "fillers"}}
	p := quant.Default()
	sizes := []int{128, 64, 32, 16}
	if opt.Quick {
		sizes = []int{128, 16}
	}
	for _, spec := range specsFor(opt) {
		for _, ou := range sizes {
			g := mapping.Default().WithOU(ou)
			b, err := build(spec, workload.SSL, p, g, opt)
			if err != nil {
				return nil, err
			}
			var bits int64
			var fillers int
			for _, l := range b.Layers {
				bits += l.Struct.IndexStorageBits(compress.ORC, spec.IndexBits)
				lay := l.Struct.Layout
				for rb := 0; rb < lay.RowBlocks; rb++ {
					for cb := 0; cb < lay.ColBlocks; cb++ {
						for gi := 0; gi < lay.GroupsInTile(cb); gi++ {
							fillers += l.Struct.Plan(compress.ORC, rb, cb, gi, spec.IndexBits).Fillers
						}
					}
				}
			}
			t.AddRow(spec.Name, fmt.Sprintf("%dx%d", ou, ou),
				fmt.Sprintf("%.1f", float64(bits)/8/1024), fmt.Sprintf("%d", fillers))
		}
	}
	t.Notes = append(t.Notes,
		"storage rises only mildly as the OU shrinks (more groups, fewer rows each) — paper §7.2")
	return t, nil
}

// Fig20 reports the ORC weight compression ratio across OU sizes, with
// SNrram and the ideal bound (paper Fig. 20).
func Fig20(opt Options) (*Table, error) {
	t := &Table{ID: "fig20", Title: "Weight compression ratio vs OU size",
		Header: []string{"network", "OU", "ORC ratio", "SNrram", "ideal"}}
	p := quant.Default()
	sizes := []int{128, 64, 32, 16, 8, 4, 2}
	if opt.Quick {
		sizes = []int{128, 16, 2}
	}
	for _, spec := range specsFor(opt) {
		for si, ou := range sizes {
			g := mapping.Default().WithOU(ou)
			b, err := build(spec, workload.SSL, p, g, opt)
			if err != nil {
				return nil, err
			}
			orc, err := core.FootprintOf(b.Layers, compress.ORC, spec.IndexBits)
			if err != nil {
				return nil, err
			}
			snr, ideal := "", ""
			if si == 0 {
				// SNrram and ideal are OU-independent; print once per net.
				fp, err := core.FootprintOf(b.Layers, compress.Ideal, 0)
				if err != nil {
					return nil, err
				}
				snr = f2(float64(orc.TotalCells) / float64(max(b.SNrramCells(), 1)))
				ideal = f2(fp.Ratio())
			}
			t.AddRow(spec.Name, fmt.Sprintf("%dx%d", ou, ou), f2(orc.Ratio()), snr, ideal)
		}
	}
	t.Notes = append(t.Notes,
		"ORC ratio grows as OU shrinks and approaches the ideal bound at 2x2 (paper Fig. 20)")
	return t, nil
}

// Overhead reports the synthesized Index Decoder and WLVG area/power and
// the delta-vs-absolute index storage comparison (paper §7.2).
func Overhead(opt Options) (*Table, error) {
	t := &Table{ID: "overhead", Title: "Indexing overhead (paper §7.2)",
		Header: []string{"item", "value"}}
	dec, wlvg := synth.PaperIndexDecoder(), synth.PaperWLVG()
	t.AddRow("Index Decoder power", fmt.Sprintf("%.2f mW", dec.Power()))
	t.AddRow("Index Decoder area", fmt.Sprintf("%.4f mm^2", dec.Area()))
	t.AddRow("WLVG power", fmt.Sprintf("%.2f mW", wlvg.Power()))
	t.AddRow("WLVG area", fmt.Sprintf("%.4f mm^2", wlvg.Area()))

	name := "ResNet-50"
	if opt.Quick {
		name = "CIFAR-10"
	}
	spec, err := workload.SpecByName(name)
	if err != nil {
		return nil, err
	}
	b, err := build(spec, workload.SSL, quant.Default(), mapping.Default(), opt)
	if err != nil {
		return nil, err
	}
	var delta, abs int64
	for _, l := range b.Layers {
		delta += l.Struct.IndexStorageBits(compress.ORC, spec.IndexBits)
		abs += l.Struct.AbsoluteIndexBits()
	}
	t.AddRow(name+" delta-encoded index storage", fmt.Sprintf("%.1f KB", float64(delta)/8/1024))
	t.AddRow(name+" absolute index storage", fmt.Sprintf("%.1f KB", float64(abs)/8/1024))
	t.Notes = append(t.Notes,
		"paper: decoder 1.24 mW / 0.001 mm^2; WLVG 0.86 mW / 0.001 mm^2; ResNet-50 ~778 KB delta vs ~4 MB absolute")
	return t, nil
}
