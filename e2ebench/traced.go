package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"sre"
	"sre/internal/metrics"
	"sre/internal/snapshot"
)

// Span names the traced suite records, one per layer call or parent
// step; each one's self time is a per-layer metric.
var spanNames = []string{
	"cold.round", "cold.network", "sre.Load", "Network.WriteTo", "sre.OpenSnapshot",
	"snapshot.Decode", "Network.RunAllContext", "Network.RunModesContext",
	"Network.RunBatchContext", "sweep.pass", "serve.request", "serve.ServeHTTP",
}

// runTraced is the traced run. It passes through every layer the three
// workloads use — a cold-start round, the batch engine, sweep passes
// and a serve session — with spans around each call into the program
// and its metrics registry attached, and reports per-layer numbers.
// The tracing overhead is measured on o.workload's unit of work:
// traced minus untraced, both in this process.
func runTraced(ctx context.Context, o options) (*report, error) {
	tr := newTracer()
	rep := newReport()
	overhead := map[string]float64{}

	opened, err := tracedCold(ctx, o, tr, rep, overhead)
	if err != nil {
		return nil, err
	}
	if err := tracedBatch(ctx, o, opened, tr, rep); err != nil {
		return nil, err
	}
	opened = nil
	runtime.GC()
	if err := tracedSweep(ctx, o, tr, rep, overhead); err != nil {
		return nil, err
	}
	runtime.GC()
	if err := tracedServe(ctx, o, tr, rep, overhead); err != nil {
		return nil, err
	}

	rep.layer("trace.overhead_ms", overhead[o.workload], "ms")
	rep.layer("trace.spans", float64(tr.Len()), "count")
	self := tr.SelfMS()
	for _, name := range spanNames {
		rep.layer("self_ms."+name, self[name], "ms")
	}
	rep.detail["overhead_ms"] = overhead
	rep.detail["self_ms"] = self
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := tr.WriteFile(path); err != nil {
		return nil, err
	}
	fmt.Println("trace", path)
	return rep, nil
}

func counter(s *metrics.Snapshot, name string) float64 { return float64(s.Counters[name]) }

// counterSum sums every labelled variant of a counter.
func counterSum(s *metrics.Snapshot, prefix string) float64 {
	var t int64
	for k, v := range s.Counters {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			t += v
		}
	}
	return float64(t)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedCold runs one traced cold-start round, a second sweep of each
// opened network and a snapshot decode from memory. It returns the
// opened GoogLeNet for the batch section.
func tracedCold(ctx context.Context, o options, tr *Tracer, rep *report, overhead map[string]float64) (*sre.Network, error) {
	section := startGoCost()
	dir, err := os.MkdirTemp(o.out, "snap-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := warmUpMNIST(ctx, dir); err != nil {
		return nil, err
	}
	orders := coldOrders(o.seed)
	var untraced time.Duration
	if o.workload == "cold-start" {
		nets, err := coldRound(ctx, dir, orders(), nil, nil)
		if err != nil {
			return nil, err
		}
		for _, c := range nets {
			untraced += c.total()
			_ = os.Remove(c.path) // best effort; the directory goes at the end
		}
	}

	reg := sre.NewMetrics()
	cost := startGoCost()
	nets, err := coldRound(ctx, dir, orders(), tr, reg)
	if err != nil {
		return nil, err
	}
	allocPerOp, _ := cost.stop(len(nets))
	first := reg.Snapshot()

	var traced, write, open, decode, cold time.Duration
	var bytes int64
	var googlenet *sre.Network
	for _, c := range nets {
		traced += c.total()
		write += c.write
		open += c.open
		bytes += c.bytes
		rep.attempted++
		if c.mismatch {
			rep.failed++
			rep.mismatches = append(rep.mismatches, c.opened.Name()+": opened sweep differs from built sweep")
		}
		rep.layer("workload.build_ms."+strings.ToLower(c.opened.Name()), ms(c.build), "ms")

		t0 := time.Now()
		id := tr.Start("Network.RunAllContext", 0, 0)
		_, err := c.opened.RunAllContext(ctx, sre.WithMetrics(reg))
		tr.End(id)
		if err != nil {
			return nil, err
		}
		cold += c.first - time.Since(t0)

		data, err := os.ReadFile(c.path)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		id = tr.Start("snapshot.Decode", 0, 0)
		_, _, err = snapshot.Decode(data)
		tr.End(id)
		decode += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", c.opened.Name(), err)
		}
		if c.opened.Name() == "GoogLeNet" {
			googlenet = c.opened
		}
	}
	if o.workload == "cold-start" {
		overhead["cold-start"] = ms(traced - untraced)
	}
	rep.layer("snapshot.write_ms", ms(write), "ms")
	rep.layer("snapshot.open_ms", ms(open), "ms")
	rep.layer("snapshot.decode_ms", ms(decode), "ms")
	rep.layer("snapshot.bytes", float64(bytes), "bytes")
	rep.layer("core.cold_cache_ms", ms(cold), "ms")
	rep.layer("compress.plan_cache_builds", counter(first, "sre_compress_plan_cache_builds_total"), "count")
	rep.layer("core.code_cache_builds", counter(first, "sre_core_code_cache_builds_total"), "count")
	_, gcPause := section.stop(1)
	rep.layer("go.alloc_mb_per_op.cold-start", allocPerOp, "MB")
	rep.layer("go.gc_pause_ms.cold-start", gcPause, "ms")
	return googlenet, nil
}

// tracedBatch times the batch engine on the opened GoogLeNet at
// defaults, the serve workload's resident design point, and checks a
// batch of one against the single-input path.
func tracedBatch(ctx context.Context, o options, g *sre.Network, tr *Tracer, rep *report) error {
	const k = 4
	seeds := distinctSeeds(o.seed, streamBatch, k+1)
	sets := make([]sre.ActivationSet, k+1)
	for i, s := range seeds {
		sets[i].ActSeed = s
	}
	modes := sre.Modes()
	timed := func(acts []sre.ActivationSet) (time.Duration, [][]sre.Result, error) {
		t0 := time.Now()
		id := tr.Start("Network.RunBatchContext", 0, 0)
		res, err := g.RunBatchContext(ctx, modes, acts)
		tr.End(id)
		return time.Since(t0), res, err
	}
	batch, _, err := timed(sets[:k])
	if err != nil {
		return err
	}
	single, _, err := timed(sets[k:])
	if err != nil {
		return err
	}
	rep.layer("core.batch_ms_per_seed", ms(batch)/k, "ms")
	rep.layer("core.fresh_single_ms", ms(single), "ms")

	_, one, err := timed([]sre.ActivationSet{{ActSeed: 0}})
	if err != nil {
		return err
	}
	want, err := g.RunModesContext(ctx, modes)
	if err != nil {
		return err
	}
	rep.attempted++
	if !reflect.DeepEqual(one[0], want) {
		rep.failed++
		rep.mismatches = append(rep.mismatches, "RunBatchContext with ActSeed 0 differs from RunModesContext")
	}
	return nil
}

// tracedSweep alternates untraced and traced passes over the sweep
// networks, then times each mode alone and a pass at one worker.
func tracedSweep(ctx context.Context, o options, tr *Tracer, rep *report, overhead map[string]float64) error {
	section := startGoCost()
	s, err := setupSweep(ctx, o.seed)
	if err != nil {
		return err
	}
	const passes = 2
	reg := sre.NewMetrics()
	var plain, traced []float64
	cost := startGoCost()
	for i := 0; i < 2*passes; i++ {
		var d time.Duration
		var mismatch bool
		if i%2 == 0 {
			d, mismatch, err = s.pass(ctx, nil)
			plain = append(plain, ms(d))
		} else {
			d, mismatch, err = s.pass(ctx, tr, sre.WithMetrics(reg))
			traced = append(traced, ms(d))
		}
		if err != nil {
			return err
		}
		rep.attempted++
		if mismatch {
			rep.failed++
			rep.mismatches = append(rep.mismatches, fmt.Sprintf("traced suite: sweep pass %d differs from the first pass", i))
		}
	}
	allocPerOp, _ := cost.stop(2 * passes)
	overhead["sweep"] = median(traced) - median(plain)
	snap := reg.Snapshot()
	ouPerPass := counterSum(snap, "sre_core_ou_activations_total") / passes
	rep.layer("core.ns_per_ou", ratio(median(plain)*1e6, ouPerPass), "ns")
	rep.layer("core.plan_cache_hit_ratio", ratio(counter(snap, "sre_compress_plan_cache_hits_total"),
		counter(snap, "sre_compress_plan_cache_hits_total")+counter(snap, "sre_compress_plan_cache_misses_total")), "ratio")
	rep.layer("core.code_cache_hit_ratio", ratio(counter(snap, "sre_core_code_cache_hits_total"),
		counter(snap, "sre_core_code_cache_hits_total")+counter(snap, "sre_core_code_cache_misses_total")), "ratio")

	for mi, m := range sre.Modes() {
		var total time.Duration
		for ni, n := range s.nets {
			t0 := time.Now()
			id := tr.Start("Network.RunModesContext", 0, 0)
			res, err := n.RunModesContext(ctx, []sre.Mode{m})
			tr.End(id)
			total += time.Since(t0)
			if err != nil {
				return err
			}
			rep.attempted++
			if !reflect.DeepEqual(res[0], s.ref[ni][mi]) {
				rep.failed++
				rep.mismatches = append(rep.mismatches, fmt.Sprintf("%s %s alone differs from the all-mode sweep", n.Name(), m))
			}
		}
		rep.layer("core.mode_ms."+strings.ReplaceAll(m.String(), "+", ""), ms(total), "ms")
	}

	one, mismatch, err := s.pass(ctx, tr, sre.WithWorkers(1))
	if err != nil {
		return err
	}
	rep.attempted++
	if mismatch {
		rep.failed++
		rep.mismatches = append(rep.mismatches, "sweep at WithWorkers(1) differs from the default width")
	}
	rep.layer("parallel.speedup", ms(one)/median(plain), "x")
	_, gcPause := section.stop(1)
	rep.layer("go.alloc_mb_per_op.sweep", allocPerOp, "MB")
	rep.layer("go.gc_pause_ms.sweep", gcPause, "ms")
	return nil
}

// tracedServe runs a serve session with every other request traced.
func tracedServe(ctx context.Context, o options, tr *Tracer, rep *report, overhead map[string]float64) error {
	phaseLen := o.seconds / time.Duration(len(servePhases))
	section := startGoCost()
	s, err := startServe(o.seed, phaseLen)
	if err != nil {
		return err
	}
	before := s.srv.Metrics().Snapshot()
	cost := startGoCost()
	out := s.run(tr, 2)
	allocPerOp, _ := cost.stop(len(out))
	_, gcPause := section.stop(1)
	after := s.srv.Metrics().Snapshot()
	if err := s.close(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := checkServe(ctx, s, out, rep); err != nil {
		return err
	}
	st := summarizeServe(s.in, out, phaseLen)
	var traced, plain []float64
	for i, r := range out {
		if i%2 == 0 {
			traced = append(traced, ms(r.latency))
		} else {
			plain = append(plain, ms(r.latency))
		}
	}
	overhead["serve"] = median(traced) - median(plain)

	delta := func(name string) float64 { return counter(after, name) - counter(before, name) }
	hits, misses := delta("sre_serve_result_cache_hits_total"), delta("sre_serve_result_cache_misses_total")
	rep.layer("serve.hit_p50_ms", st.class[Hit].P50, "ms")
	rep.layer("serve.miss_p50_ms", st.class[Miss].P50, "ms")
	rep.layer("serve.cold_p50_ms", st.class[Cold].P50, "ms")
	rep.layer("serve.miss_tail_ms", st.class[Miss].Tail, "ms")
	rep.layer("serve.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	rep.layer("serve.batch_size_mean", st.batchMean, "count")
	rep.layer("serve.sweeps", delta("sre_serve_sweeps_total"), "count")
	rep.layer("serve.coalesced", delta("sre_serve_coalesced_requests_total"), "count")
	rep.layer("serve.registry_builds", delta("sre_serve_registry_builds_total"), "count")
	rep.layer("serve.rejected", delta("sre_serve_rejected_total"), "count")
	rep.layer("serve.timeouts", delta("sre_serve_timeouts_total"), "count")
	for i, p := range servePhases {
		rep.layer("gen.lag_tail_ms."+p.Name, st.lag[i].Tail, "ms")
		rep.layer("gen.sent."+p.Name, float64(st.sent[i]), "count")
		rep.layer("gen.succeeded."+p.Name, float64(st.succeeded[i]), "count")
		rep.layer("gen.failed."+p.Name, float64(st.failed[i]), "count")
	}
	rep.layer("go.alloc_mb_per_op.serve", allocPerOp, "MB")
	rep.layer("go.gc_pause_ms.serve", gcPause, "ms")
	rep.detail["serve"] = st.record()
	return nil
}
