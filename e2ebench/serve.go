package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"sre"
	"sre/internal/serve"
)

// The serve workload's two open-loop rates and its latency limit. They
// were calibrated once on a 2-CPU host and are frozen here so that
// every run and every commit offers the service the same load.
var servePhases = []Phase{{Name: "light", Rate: 6}, {Name: "heavy", Rate: 12}}

const serveLimit = 1500 * time.Millisecond

// served is one request's outcome.
type served struct {
	lag     time.Duration // how late the generator sent it
	latency time.Duration // from its due time to its response
	status  int
	body    []byte
	ok      bool // 200 and equal to the direct library run
}

type serveResponse struct {
	BatchSize int          `json:"batch_size"`
	Cached    bool         `json:"cached"`
	Results   []sre.Result `json:"results"`
}

// serveSession is an in-process service with sreserved's default
// options, warmed with the hot set, and the schedule it will be sent.
type serveSession struct {
	srv    *serve.Server
	in     ServeInputs
	bodies [][]byte
}

func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
	return rec
}

// startServe is the serve workload's set-up: it creates the server and
// requests every hot cell once, which builds the resident networks and
// fills the result cache.
func startServe(seed uint64, phaseLen time.Duration) (*serveSession, error) {
	s := &serveSession{srv: serve.NewServer(serve.Options{}), in: serveInputs(seed, servePhases, phaseLen)}
	for _, c := range s.in.Hot {
		body, err := json.Marshal(c.request())
		if err != nil {
			return nil, err
		}
		if rec := post(s.srv, body); rec.Code != http.StatusOK {
			return nil, fmt.Errorf("warm-up %+v: status %d: %s", c, rec.Code, rec.Body.String())
		}
	}
	for _, a := range s.in.Arrivals {
		body, err := json.Marshal(a.Cell.request())
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, body)
	}
	return s, nil
}

// run sends the schedule open loop: each request goes out at its due
// time on its own goroutine, whether or not earlier ones have been
// answered, so the goroutine count follows the schedule's length. With
// traceEvery k > 0, every k-th request is traced.
func (s *serveSession) run(tr *Tracer, traceEvery int) []served {
	out := make([]served, len(s.in.Arrivals))
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for i, a := range s.in.Arrivals {
		due := start.Add(a.Due)
		waitUntil(due)
		var t *Tracer
		if traceEvery > 0 && i%traceEvery == 0 {
			t = tr
		}
		wg.Add(1)
		go func(i int, due time.Time, t *Tracer) {
			defer wg.Done()
			req := int64(i + 1)
			span := t.StartAt("serve.request", 0, req, due)
			sent := time.Now()
			id := t.Start("serve.ServeHTTP", span, req)
			rec := post(s.srv, s.bodies[i])
			t.End(id)
			t.End(span)
			out[i] = served{lag: sent.Sub(due), latency: time.Since(due), status: rec.Code, body: rec.Body.Bytes()}
		}(i, due, t)
	}
	wg.Wait()
	return out
}

// waitUntil returns at t: it sleeps until a millisecond before, then
// yields until t, because a plain sleep overshoots by about as much as
// a cache hit takes to serve.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// close drains the server.
func (s *serveSession) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Drain(ctx)
}

// designPoint is a network as the library builds it for a cell.
type designPoint struct {
	network   string
	buildSeed uint64
}

// runKey is everything about a cell's run besides its design point
// and activation seed.
type runKey struct {
	modes      string
	maxWindows int
}

type cellKey struct {
	designPoint
	runKey
	actSeed uint64
}

func keyOf(c Cell) cellKey {
	return cellKey{designPoint{c.Network, c.BuildSeed}, runKey{strings.Join(c.Modes, ","), c.MaxWindows}, c.ActSeed}
}

func resolveModes(names []string) ([]sre.Mode, error) {
	if len(names) == 1 && names[0] == "all" {
		return sre.Modes(), nil
	}
	out := make([]sre.Mode, len(names))
	for i, n := range names {
		m, err := sre.ParseMode(n)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// expectedResults runs every cell directly through the library, outside
// any timed phase: one network per design point, one batched run per
// mode set and chunk of activation seeds. Results are normalized
// through JSON, as the service returns them.
func expectedResults(ctx context.Context, cells []Cell) (map[cellKey][]sre.Result, error) {
	type group struct {
		modes []string
		acts  []uint64
	}
	groups := map[designPoint]map[runKey]*group{}
	var order []designPoint
	seen := map[cellKey]bool{}
	for _, c := range cells {
		k := keyOf(c)
		if seen[k] {
			continue
		}
		seen[k] = true
		if groups[k.designPoint] == nil {
			groups[k.designPoint] = map[runKey]*group{}
			order = append(order, k.designPoint)
		}
		g := groups[k.designPoint][k.runKey]
		if g == nil {
			g = &group{modes: c.Modes}
			groups[k.designPoint][k.runKey] = g
		}
		g.acts = append(g.acts, c.ActSeed)
	}
	out := map[cellKey][]sre.Result{}
	for _, dp := range order {
		var opts []sre.Option
		if dp.buildSeed != 0 {
			opts = append(opts, sre.WithSeed(dp.buildSeed))
		}
		n, err := sre.Load(dp.network, opts...)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", dp.network, err)
		}
		for rk, g := range groups[dp] {
			modes, err := resolveModes(g.modes)
			if err != nil {
				return nil, err
			}
			var runOpts []sre.Option
			if rk.maxWindows != 0 {
				runOpts = append(runOpts, sre.WithMaxWindows(rk.maxWindows))
			}
			const chunk = 8
			for lo := 0; lo < len(g.acts); lo += chunk {
				acts := g.acts[lo:min(lo+chunk, len(g.acts))]
				sets := make([]sre.ActivationSet, len(acts))
				for j, a := range acts {
					sets[j].ActSeed = a
				}
				res, err := n.RunBatchContext(ctx, modes, sets, runOpts...)
				if err != nil {
					return nil, fmt.Errorf("reference run %s: %w", dp.network, err)
				}
				for j, a := range acts {
					norm, err := normalize(res[j])
					if err != nil {
						return nil, err
					}
					out[cellKey{dp, rk, a}] = norm
				}
			}
		}
	}
	return out, nil
}

func normalize(rs []sre.Result) ([]sre.Result, error) {
	data, err := json.Marshal(rs)
	if err != nil {
		return nil, err
	}
	var out []sre.Result
	err = json.Unmarshal(data, &out)
	return out, err
}

// verify marks each 200 response ok when it equals the direct library
// run, and returns a line per response that does not.
func verify(in ServeInputs, out []served, want map[cellKey][]sre.Result) []string {
	var bad []string
	for i := range out {
		if out[i].status != http.StatusOK {
			bad = append(bad, fmt.Sprintf("serve request %d: status %d", i, out[i].status))
			continue
		}
		var resp serveResponse
		if err := json.Unmarshal(out[i].body, &resp); err != nil {
			bad = append(bad, fmt.Sprintf("serve request %d: %v", i, err))
			continue
		}
		if !reflect.DeepEqual(resp.Results, want[keyOf(in.Arrivals[i].Cell)]) {
			bad = append(bad, fmt.Sprintf("serve request %d (%s %+v): results differ from the library run",
				i, in.Arrivals[i].Class, in.Arrivals[i].Cell))
			continue
		}
		out[i].ok = true
	}
	return bad
}

// serveStats summarizes one session.
type serveStats struct {
	latency, lag            []summary // per phase, ms
	sent, succeeded, failed []int     // per phase
	class                   [3]summary
	goodput                 float64      // heavy phase: ok within the limit, per second until the last of them ends
	requests                [][5]float64 // per request: phase, class, due, lag and latency (ms)
	batchMean               float64      // mean batch_size of swept (uncached) responses
}

func summarizeServe(in ServeInputs, out []served, phaseLen time.Duration) serveStats {
	np := len(servePhases)
	st := serveStats{latency: make([]summary, np), lag: make([]summary, np),
		sent: make([]int, np), succeeded: make([]int, np), failed: make([]int, np)}
	lat := make([][]float64, np)
	lag := make([][]float64, np)
	var byClass [3][]float64
	good := 0
	heavyStart := time.Duration(np-1) * phaseLen
	heavyEnd := heavyStart
	var batchSum, batchN int
	for i, r := range out {
		a := in.Arrivals[i]
		st.requests = append(st.requests, [5]float64{float64(a.Phase), float64(a.Class), ms(a.Due), ms(r.lag), ms(r.latency)})
		st.sent[a.Phase]++
		lat[a.Phase] = append(lat[a.Phase], ms(r.latency))
		lag[a.Phase] = append(lag[a.Phase], ms(r.lag))
		byClass[a.Class] = append(byClass[a.Class], ms(r.latency))
		if !r.ok {
			st.failed[a.Phase]++
			continue
		}
		st.succeeded[a.Phase]++
		if a.Phase == np-1 && r.latency <= serveLimit {
			good++
			heavyEnd = max(heavyEnd, a.Due+r.latency)
		}
		var resp serveResponse
		if json.Unmarshal(r.body, &resp) == nil && !resp.Cached {
			batchSum += resp.BatchSize
			batchN++
		}
	}
	for p := range lat {
		st.latency[p] = summarize(lat[p])
		st.lag[p] = summarize(lag[p])
	}
	for c := range byClass {
		st.class[c] = summarize(byClass[c])
	}
	if heavyEnd > heavyStart {
		st.goodput = float64(good) / (heavyEnd - heavyStart).Seconds()
	}
	if batchN > 0 {
		st.batchMean = float64(batchSum) / float64(batchN)
	}
	return st
}

// checkServe computes the reference results for every cell the session
// sent, verifies the responses against them and adds the hot set's
// simulated totals to rep.
func checkServe(ctx context.Context, s *serveSession, out []served, rep *report) error {
	cells := append([]Cell(nil), s.in.Hot...)
	for _, a := range s.in.Arrivals {
		cells = append(cells, a.Cell)
	}
	want, err := expectedResults(ctx, cells)
	if err != nil {
		return err
	}
	for _, c := range s.in.Hot {
		rep.sim.add(want[keyOf(c)])
	}
	bad := verify(s.in, out, want)
	rep.attempted += len(out)
	rep.failed += len(bad)
	rep.mismatches = append(rep.mismatches, bad...)
	return nil
}

// runServe is the serve workload: the light phase then the heavy phase,
// each half the run length.
func runServe(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	phaseLen := o.seconds / time.Duration(len(servePhases))
	t0 := time.Now()
	s, err := startServe(o.seed, phaseLen)
	if err != nil {
		return nil, err
	}
	rep.setup = append(rep.setup, time.Since(t0).Seconds())
	rss := startRSS(false)
	cost := startGoCost()
	out := s.run(nil, 0)
	allocPerOp, gcPause := cost.stop(len(out))
	rep.peakRSS = rss.peak()
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if err := checkServe(ctx, s, out, rep); err != nil {
		return nil, err
	}
	st := summarizeServe(s.in, out, phaseLen)
	light, heavy := st.latency[0], st.latency[len(st.latency)-1]
	rep.latency = summary{N: light.N + heavy.N, P50: light.P50, Tail: heavy.Tail, TailPct: heavy.TailPct}
	rep.throughput = st.goodput
	rep.named("serve_p50_ms.light", light.P50, "ms")
	rep.named("serve_tail_ms.light", light.Tail, "ms")
	rep.named("serve_tail_ms.heavy", heavy.Tail, "ms")
	rep.named("serve_goodput_rps", st.goodput, "1/s")
	rep.named("go.alloc_mb_per_op", allocPerOp, "MB")
	rep.named("go.gc_pause_ms", gcPause, "ms")
	rep.detail["serve"] = st.record()
	return rep, nil
}

func (st serveStats) record() map[string]any {
	phases := map[string]any{}
	for i, p := range servePhases {
		phases[p.Name] = map[string]any{"rate_per_s": p.Rate, "latency_ms": st.latency[i], "lag_ms": st.lag[i],
			"sent": st.sent[i], "succeeded": st.succeeded[i], "failed": st.failed[i]}
	}
	classes := map[string]any{}
	for c, s := range st.class {
		classes[Class(c).String()] = s
	}
	return map[string]any{"limit_ms": ms(serveLimit), "phases": phases, "classes_latency_ms": classes,
		"goodput_per_s": st.goodput, "batch_size_mean": st.batchMean, "requests": st.requests}
}
