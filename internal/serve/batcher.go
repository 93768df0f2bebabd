// Batcher: runs one sweep per distinct uncached request, and lets
// identical requests share it. A request that misses the result cache
// claims its sweep synchronously and starts it at once — there is no
// coalescing delay. A request that arrives while an identical one
// (same BatchKey, act_seed and mode set) is still sweeping joins that
// sweep as a rider instead of starting its own; every rider gets the
// same per-mode results, in its own mode order. Requests that differ
// in anything else sweep separately, so no request waits for work it
// did not ask for.
//
// Result cache: because runs are deterministic, a (BatchKey, mode,
// act_seed) cell that has been swept before needs no sweep at all. A
// request whose every cell is cached is answered straight from Do —
// no sweep slot — with the bit-identical Result a sweep would have
// produced, flagged cached, and sre_serve_sweeps_total does not move.
//
// Deadlines: each rider gives up individually when its own context
// ends — a 504 for that request only. The sweep itself is cancelled
// (through the sre.RunBatchContext cancellation path) only when every
// rider has abandoned it, so one impatient client cannot kill a
// result another client is still waiting for.
package serve

import (
	"context"
	"sync"

	"sre"
	"sre/internal/metrics"
)

// BatchKey identifies the resident network and every run option that
// changes results, apart from the activation seed and the mode set.
// (Worker width and the code cache do not change results — they are
// bit-identical either way.) It keys the result cache, refined there
// by mode and act_seed, and the in-flight sweeps, refined by act_seed
// and the mode set.
type BatchKey struct {
	Key        Key
	MaxWindows int
	IndexBits  int
}

// flightKey identifies one in-flight sweep: exactly the request it
// answers. modes is the request's mode set as a bitmask over sre.Mode,
// so requests naming the same modes in a different order still match.
type flightKey struct {
	BatchKey
	actSeed uint64
	modes   uint64
}

// flight is one running sweep and the requests riding on it.
type flight struct {
	cancel context.CancelFunc
	done   chan struct{} // closed once byMode and err are set

	// Both counts are guarded by Batcher.mu while the flight is in the
	// in-flight map; riders is final once done is closed.
	riders int // requests that joined
	live   int // riders still waiting

	byMode map[sre.Mode]sre.Result
	err    error
}

// Batcher executes sweeps and shares them between identical requests.
// Create one with NewBatcher.
type Batcher struct {
	registry *Registry
	budget   *Budget
	cache    *ResultCache // nil disables result caching
	workers  int
	opts     []sre.Option // extra run options (e.g. WithMetrics)
	base     context.Context

	mu       sync.Mutex
	inflight map[flightKey]*flight

	sweeps    *metrics.Counter
	coalesced *metrics.Counter
	cancels   *metrics.Counter
}

// NewBatcher returns a batcher executing against registry under
// budget, consulting (and populating) cache when it is non-nil.
// workers is the per-sweep pool width (0 = GOMAXPROCS); base bounds
// every sweep's lifetime (the server's run context); shard receives
// the batcher's counters (nil-safe); runOpts are appended to every
// sweep (the server passes WithMetrics).
func NewBatcher(registry *Registry, budget *Budget, cache *ResultCache,
	workers int, base context.Context, shard *metrics.Shard, runOpts ...sre.Option) *Batcher {
	return &Batcher{
		registry:  registry,
		budget:    budget,
		cache:     cache,
		workers:   workers,
		opts:      runOpts,
		base:      base,
		inflight:  map[flightKey]*flight{},
		sweeps:    shard.Counter("sre_serve_sweeps_total"),
		coalesced: shard.Counter("sre_serve_coalesced_requests_total"),
		cancels:   shard.Counter("sre_serve_sweep_cancels_total"),
	}
}

// Do submits one request (key + the registry modes it wants, without
// duplicates + its activation seed, 0 = the network's own activations)
// and blocks until its results arrive or ctx ends. Returns the results
// in the order modes was given, how many requests shared the sweep,
// and whether the response came from the result cache without
// sweeping.
func (b *Batcher) Do(ctx context.Context, key BatchKey, modes []sre.Mode, actSeed uint64) ([]sre.Result, int, bool, error) {
	fk := flightKey{BatchKey: key, actSeed: actSeed}
	for _, m := range modes {
		fk.modes |= 1 << uint(m)
	}

	// The cache lookup and the in-flight check share one critical
	// section. A sweep populates the cache before it leaves the
	// in-flight map, so a request either hits the cache or finds the
	// sweep still running — it never starts a second, identical sweep.
	b.mu.Lock()
	if res, ok := b.cache.Lookup(key, modes, actSeed); ok {
		b.mu.Unlock()
		return res, 1, true, nil
	}
	f, ok := b.inflight[fk]
	if ok {
		b.coalesced.Inc()
	} else {
		runCtx, cancel := context.WithCancel(b.base)
		f = &flight{cancel: cancel, done: make(chan struct{})}
		b.inflight[fk] = f
		b.sweeps.Inc()
		b.cache.Miss(len(modes))
		go b.sweep(runCtx, fk, f, modes)
	}
	f.riders++
	f.live++
	b.mu.Unlock()

	select {
	case <-f.done:
		if f.err != nil {
			return nil, f.riders, false, f.err
		}
		out := make([]sre.Result, len(modes))
		for i, m := range modes {
			out[i] = f.byMode[m]
		}
		return out, f.riders, false, nil
	case <-ctx.Done():
		// The last rider to leave a running sweep cancels it, and takes
		// it out of the map so a later identical request starts afresh.
		b.mu.Lock()
		f.live--
		if f.live == 0 && b.inflight[fk] == f {
			delete(b.inflight, fk)
			b.cancels.Inc()
			f.cancel()
		}
		b.mu.Unlock()
		return nil, 0, false, ctx.Err()
	}
}

// sweep runs one flight, populates the cache with its cells, and
// delivers to every rider.
func (b *Batcher) sweep(ctx context.Context, fk flightKey, f *flight, modes []sre.Mode) {
	defer f.cancel()
	byMode, err := b.run(ctx, fk.BatchKey, modes, fk.actSeed)
	for m, r := range byMode {
		b.cache.Put(fk.BatchKey, m, fk.actSeed, r)
	}
	b.mu.Lock()
	if b.inflight[fk] == f {
		delete(b.inflight, fk)
	}
	b.mu.Unlock()
	f.byMode, f.err = byMode, err
	close(f.done)
}

// run simulates modes at one activation seed under a sweep slot,
// keyed by mode.
func (b *Batcher) run(ctx context.Context, key BatchKey, modes []sre.Mode, actSeed uint64) (map[sre.Mode]sre.Result, error) {
	if err := b.budget.Acquire(ctx); err != nil {
		return nil, err
	}
	defer b.budget.Release()

	net, release, err := b.registry.Get(ctx, key.Key)
	if err != nil {
		return nil, err
	}
	opts := append([]sre.Option{
		sre.WithMaxWindows(key.MaxWindows),
		sre.WithIndexBits(key.IndexBits),
		sre.WithWorkers(b.workers),
	}, b.opts...)
	grid, err := net.RunBatchContext(ctx, modes, []sre.ActivationSet{{ActSeed: actSeed}}, opts...)
	// Unpin before delivering, so a client holding its response already
	// sees the refreshed size and pin count in /v1/networks.
	release()
	if err != nil {
		return nil, err
	}
	byMode := make(map[sre.Mode]sre.Result, len(grid[0]))
	for _, r := range grid[0] {
		// Strip the sweep-wide metrics snapshot: responses must be
		// bit-identical to a direct run, and /metrics serves the
		// aggregate view.
		r.Metrics = nil
		byMode[r.Mode] = r
	}
	return byMode, nil
}
