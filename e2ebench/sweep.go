package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"sre"
)

// sweepNetworks are the sweep workload's networks, built once with
// weight bit-slices capped at 2 and every window simulated.
var sweepNetworks = []string{"GoogLeNet", "ResNet-50"}

// sweepSet is the sweep workload's resident state: the built networks,
// in the order a pass visits them, and the warm-up pass every later
// pass must reproduce.
type sweepSet struct {
	nets []*sre.Network
	ref  [][]sre.Result
}

// setupSweep builds the sweep networks at the default design point and
// runs one warm-up pass, so plan and window-code caches are full before
// any pass is timed.
func setupSweep(ctx context.Context, seed uint64) (*sweepSet, error) {
	s := &sweepSet{}
	for _, i := range sweepOrder(seed) {
		name := sweepNetworks[i]
		n, err := sre.Load(name, sre.WithSliceCap(2), sre.WithMaxWindows(0))
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", name, err)
		}
		res, err := n.RunAllContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("warm-up sweep %s: %w", name, err)
		}
		s.nets = append(s.nets, n)
		s.ref = append(s.ref, res)
	}
	return s, nil
}

// pass runs one all-mode sweep per network and reports its time and
// whether any result differs from the warm-up pass.
func (s *sweepSet) pass(ctx context.Context, tr *Tracer, opts ...sre.Option) (time.Duration, bool, error) {
	span := tr.Start("sweep.pass", 0, 0)
	defer tr.End(span)
	mismatch := false
	var total time.Duration
	for i, n := range s.nets {
		t0 := time.Now()
		id := tr.Start("Network.RunAllContext", span, 0)
		res, err := n.RunAllContext(ctx, opts...)
		tr.End(id)
		total += time.Since(t0)
		if err != nil {
			return 0, false, fmt.Errorf("sweep %s: %w", n.Name(), err)
		}
		if !reflect.DeepEqual(withoutMetrics(res), s.ref[i]) {
			mismatch = true
		}
	}
	return total, mismatch, nil
}

// runSweep is the sweep workload: one closed-loop caller repeats passes
// for the run length.
func runSweep(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	t0 := time.Now()
	s, err := setupSweep(ctx, o.seed)
	if err != nil {
		return nil, err
	}
	rep.setup = append(rep.setup, time.Since(t0).Seconds())
	for _, ref := range s.ref {
		rep.sim.add(ref)
	}

	rss := startRSS(true)
	var passes []float64
	cost := startGoCost()
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < o.seconds {
		d, mismatch, err := s.pass(ctx, nil)
		if err != nil {
			return nil, err
		}
		rep.attempted++
		if mismatch {
			rep.failed++
			rep.mismatches = append(rep.mismatches, fmt.Sprintf("sweep pass %d differs from the first pass", len(passes)))
		}
		passes = append(passes, ms(d))
	}
	elapsed := time.Since(start)
	allocPerOp, gcPause := cost.stop(len(passes))
	rep.peakRSS = rss.peak()
	rep.detail["passes_ms"] = passes

	rep.latency = summarize(passes)
	rep.throughput = float64(len(passes)) / elapsed.Seconds()
	rep.named("sweep_p50_ms", rep.latency.P50, "ms")
	rep.named("sweep_tail_ms", rep.latency.Tail, "ms")
	rep.named("go.alloc_mb_per_op", allocPerOp, "MB")
	rep.named("go.gc_pause_ms", gcPause, "ms")
	return rep, nil
}
