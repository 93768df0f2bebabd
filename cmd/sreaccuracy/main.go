// Command sreaccuracy runs the Fig. 5 accuracy-vs-wordlines study with
// adjustable device parameters: it trains a small CNN on a synthetic
// dataset, then evaluates inference accuracy while injecting the ReRAM
// read-error channel at each candidate OU height.
//
// Usage:
//
//	sreaccuracy                          # defaults: baseline WOx cell
//	sreaccuracy -sigma 0.05 -rratio 10   # a worse device
//	sreaccuracy -improve 3               # the paper's (3Rb, σb/3) variant
//	sreaccuracy -wordlines 4,16,64 -samples 300
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sre/internal/cli"
	"sre/internal/dataset"
	"sre/internal/experiments"
	"sre/internal/nn"
	"sre/internal/parallel"
	"sre/internal/quant"
	"sre/internal/reram"
	"sre/internal/train"
	"sre/internal/xrand"
)

func main() {
	var (
		sigma     = flag.Float64("sigma", reram.WOxBaseline().Sigma, "per-cell relative current deviation")
		rratio    = flag.Float64("rratio", reram.WOxBaseline().RRatio, "Ion/Ioff resistance window")
		improve   = flag.Float64("improve", 1, "scale R-ratio up and sigma down by this factor")
		wordlines = flag.String("wordlines", "4,8,16,32,64,128", "comma-separated OU heights")
		samples   = flag.Int("samples", 200, "test samples")
		epochs    = flag.Int("epochs", 8, "training epochs")
		seed      = flag.Uint64("seed", 1, "seed")
		workers   = cli.AddWorkers(flag.CommandLine)
	)
	flag.Parse()

	cell := reram.Cell{Bits: 2, RRatio: *rratio, Sigma: *sigma}.Improved(*improve)
	if err := cell.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "sreaccuracy:", err)
		os.Exit(2)
	}
	var ns []int
	for _, part := range strings.Split(*wordlines, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 || n > 128 {
			fmt.Fprintf(os.Stderr, "sreaccuracy: bad wordline count %q\n", part)
			os.Exit(2)
		}
		ns = append(ns, n)
	}

	cfg := dataset.Config{Name: "acc", Channels: 1, Size: 20, Classes: 10,
		Train: 1200, Test: *samples, Noise: 0.30, MaxShift: 2, Seed: 101}
	trainSet, testSet := dataset.Generate(cfg)
	net, err := nn.Parse("acc", nn.Shape{1, 20, 20}, "conv5x8-pool-conv3x16-pool-64-10")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sreaccuracy:", err)
		os.Exit(1)
	}
	fmt.Printf("training on %d synthetic samples...\n", trainSet.Len())
	tr := train.New(net, 0.03, *seed+7)
	for e := 0; e < *epochs; e++ {
		tr.TrainEpoch(trainSet)
		tr.LR *= 0.5
	}
	clean := tr.Accuracy(testSet)
	fmt.Printf("clean accuracy: %.1f%%\n\n", 100*clean)

	p := quant.Default()
	fmt.Printf("cell: R-ratio %.0f, sigma %.4f (%d-bit cells)\n", cell.RRatio, cell.Sigma, cell.Bits)
	fmt.Printf("%-10s %-18s %s\n", "wordlines", "read-error prob", "accuracy")
	// Each wordline count seeds its own RNG, so the sweep shards across
	// workers without changing any result.
	accs := make([]float64, len(ns))
	err = parallel.New(*workers).For(context.Background(), len(ns), func(start, end int) {
		for i := start; i < end; i++ {
			n := ns[i]
			accs[i] = experiments.NoisyAccuracy(net, testSet, cell, n, p, xrand.New(*seed+uint64(n)))
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sreaccuracy:", err)
		os.Exit(1)
	}
	for i, n := range ns {
		fmt.Printf("%-10d %-18.3g %.1f%%\n", n, cell.ReadErrorProb(n/2, 1.5), 100*accs[i])
	}
	fmt.Println("\nthe paper sets the OU height to 16: the largest count that keeps")
	fmt.Println("accuracy intact for realistic cells (Fig. 5, §3).")
}
