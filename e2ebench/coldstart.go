package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"time"

	"sre"
)

// coldNetworks are the cold-start workload's networks: CaffeNet, whose
// build one FC layer dominates, and two 50+ layer networks.
var coldNetworks = []string{"CaffeNet", "GoogLeNet", "ResNet-50"}

// coldNet is one network's cold start: build, snapshot write, snapshot
// open and the first all-mode sweep on the opened network.
type coldNet struct {
	build, write, open, first time.Duration
	bytes                     int64
	path                      string
	opened                    *sre.Network
	results                   []sre.Result // the opened network's first sweep
	mismatch                  bool         // it differs from the built network's sweep
}

func (c coldNet) total() time.Duration { return c.build + c.write + c.open + c.first }

// coldStart cold-starts one network at defaults with build seed seed,
// writing its snapshot into dir. reg, when non-nil, meters the first
// sweep. The gate sweep on the built network runs outside every timed
// call.
func coldStart(ctx context.Context, dir, name string, seed uint64, tr *Tracer, parent int, reg *sre.Metrics) (coldNet, error) {
	c := coldNet{path: filepath.Join(dir, fmt.Sprintf("%s-%d.sresnap", name, seed))}
	span := tr.Start("cold.network", parent, 0)
	defer tr.End(span)

	t0 := time.Now()
	id := tr.Start("sre.Load", span, 0)
	built, err := sre.Load(name, sre.WithSeed(seed))
	tr.End(id)
	c.build = time.Since(t0)
	if err != nil {
		return c, fmt.Errorf("load %s: %w", name, err)
	}

	t0 = time.Now()
	id = tr.Start("Network.WriteTo", span, 0)
	c.bytes, err = writeSnapshot(built, c.path)
	tr.End(id)
	c.write = time.Since(t0)
	if err != nil {
		return c, fmt.Errorf("snapshot %s: %w", name, err)
	}

	t0 = time.Now()
	id = tr.Start("sre.OpenSnapshot", span, 0)
	c.opened, err = sre.OpenSnapshot(c.path)
	tr.End(id)
	c.open = time.Since(t0)
	if err != nil {
		return c, fmt.Errorf("open snapshot %s: %w", name, err)
	}

	var opts []sre.Option
	if reg != nil {
		opts = append(opts, sre.WithMetrics(reg))
	}
	t0 = time.Now()
	id = tr.Start("Network.RunAllContext", span, 0)
	c.results, err = c.opened.RunAllContext(ctx, opts...)
	tr.End(id)
	c.first = time.Since(t0)
	if err != nil {
		return c, fmt.Errorf("first sweep %s: %w", name, err)
	}
	c.results = withoutMetrics(c.results)

	want, err := built.RunAllContext(ctx)
	if err != nil {
		return c, fmt.Errorf("gate sweep %s: %w", name, err)
	}
	c.mismatch = !reflect.DeepEqual(c.results, want)
	return c, nil
}

func writeSnapshot(n *sre.Network, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	nb, err := n.WriteTo(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return nb, err
}

// coldRound cold-starts every cold network once at the default design
// point, in the given order. Before each network the heap is collected
// and its free memory returned to the OS, so each build begins from the
// same state, as it would in a fresh process.
func coldRound(ctx context.Context, dir string, order []int, tr *Tracer, reg *sre.Metrics) ([]coldNet, error) {
	span := tr.Start("cold.round", 0, 0)
	defer tr.End(span)
	out := make([]coldNet, 0, len(order))
	for _, i := range order {
		debug.FreeOSMemory()
		c, err := coldStart(ctx, dir, coldNetworks[i], defaultSeed, tr, span, reg)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// warmUpMNIST runs the cold-start path once on MNIST, the smallest
// network. It is the cold-start workload's set-up: one-time process
// costs (code paging, worker start, runtime growth) land here rather
// than on the first measured network, and no measured network shares
// any state with it.
func warmUpMNIST(ctx context.Context, dir string) error {
	_, err := coldStart(ctx, dir, "MNIST", defaultSeed, nil, 0, nil)
	return err
}

// runColdStart is the cold-start workload: one closed-loop caller
// repeats rounds of coldRound, each in an order drawn from the seed,
// until the next round would overrun the run length (at least one
// round).
func runColdStart(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	dir, err := os.MkdirTemp(o.out, "snap-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := warmUpMNIST(ctx, dir); err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
	}

	orders := coldOrders(o.seed)
	var build, open, first, round []float64
	var sim simTotals
	rss := startRSS(true)
	cost := startGoCost()
	start := time.Now()
	for r := 0; ; r++ {
		nets, err := coldRound(ctx, dir, orders(), nil, nil)
		if err != nil {
			return nil, err
		}
		var b, op, f, tot time.Duration
		for _, c := range nets {
			b += c.build
			op += c.open
			f += c.first
			tot += c.total()
			rep.attempted++
			if c.mismatch {
				rep.failed++
				rep.mismatches = append(rep.mismatches, fmt.Sprintf("cold-start %s round %d: opened sweep differs from built sweep", c.opened.Name(), r))
			}
			if r == 0 {
				sim.add(c.results)
			}
			_ = os.Remove(c.path) // best effort; the directory goes at the end
		}
		build = append(build, b.Seconds())
		open = append(open, op.Seconds())
		first = append(first, f.Seconds())
		round = append(round, ms(tot))
		if elapsed := time.Since(start); elapsed+tot > o.seconds {
			break
		}
	}
	elapsed := time.Since(start)
	allocPerOp, gcPause := cost.stop(rep.attempted)
	rep.peakRSS = rss.peak()

	rs := summarize(round)
	rep.latency = rs
	rep.throughput = float64(rep.attempted) / elapsed.Seconds()
	rep.sim = sim
	rep.named("build_s", median(build), "s")
	rep.named("snapshot_open_s", median(open), "s")
	rep.named("first_sweep_s", median(first), "s")
	rep.named("round_p50_ms", rs.P50, "ms")
	rep.named("go.alloc_mb_per_op", allocPerOp, "MB")
	rep.named("go.gc_pause_ms", gcPause, "ms")
	return rep, nil
}
