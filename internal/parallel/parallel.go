// Package parallel is the simulator's shared worker-pool runner.
//
// A Pool bounds how many goroutines work at once, across nested For
// calls: the window loop of one layer, the layers of one network, and
// the modes of one sweep all draw workers from the same pool, so total
// concurrency never exceeds the configured width no matter how the
// loops nest. Extra workers are acquired with a non-blocking token
// grab — when the pool is saturated the caller simply runs the shard
// inline — so nested For calls can never deadlock.
//
// Determinism: For only partitions index space; it performs no
// reduction. Callers write per-index (or per-shard) results into
// pre-sized slices and reduce serially afterwards, which keeps results
// bit-identical to a serial run regardless of worker count or
// scheduling order.
//
// Panics: a panic in any shard — on a pool goroutine or on the caller's
// own — is recovered, its token released, and returned from For or
// ForDynamic as a *PanicError carrying the stack. The other shards
// still run, and the pool stays usable, so a bug in one work item costs
// its caller an error instead of the process.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError is a panic recovered from a For or ForDynamic shard.
type PanicError struct {
	Start, End int    // the index range whose fn call panicked
	Value      any    // the value passed to panic
	Stack      []byte // the panicking goroutine's stack (debug.Stack)
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: panic in shard [%d, %d): %v\n%s", e.Start, e.End, e.Value, e.Stack)
}

// run calls fn(start, end) and returns the panic it raised as a
// *PanicError, or nil. Returning the record, rather than writing it
// through a shared pointer, keeps the single-worker paths free of heap
// allocation.
func run(fn func(start, end int), start, end int) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = &PanicError{Start: start, End: end, Value: r, Stack: debug.Stack()}
		}
	}()
	fn(start, end)
	return nil
}

// panics records the panics recovered from one multi-worker For or
// ForDynamic call. It keeps the one with the lowest start index, so
// when every shard runs the returned error does not depend on
// scheduling.
type panics struct {
	mu    sync.Mutex
	first *PanicError
}

// run calls fn(start, end), recovering a panic into the record.
func (ps *panics) run(fn func(start, end int), start, end int) {
	if pe := run(fn, start, end); pe != nil {
		ps.mu.Lock()
		if ps.first == nil || pe.Start < ps.first.Start {
			ps.first = pe
		}
		ps.mu.Unlock()
	}
}

// err returns the recorded panic, or else ctx.Err.
func (ps *panics) err(ctx context.Context) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.first != nil {
		return ps.first
	}
	return ctx.Err()
}

// Pool bounds concurrent workers. Create one with New; a nil *Pool is
// valid and runs everything inline on the caller's goroutine.
type Pool struct {
	workers int
	sem     chan struct{} // tokens for workers beyond the caller
	stats   atomic.Pointer[Stats]
}

// Stats is the pool's cumulative execution accounting, collected only
// after EnableStats. All fields are atomics: the pool is shared across
// goroutines, and these counts sit outside the per-shard hot loops (one
// update per For call or per shard, never per item).
type Stats struct {
	// ForCalls counts For invocations that dispatched work.
	ForCalls atomic.Int64
	// Items counts the total index-space size dispatched (Σ n).
	Items atomic.Int64
	// ShardsInline counts shards run on the caller's goroutine — the
	// caller's own final shard plus any saturation fallbacks.
	ShardsInline atomic.Int64
	// ShardsSpawned counts shards handed to pool goroutines.
	ShardsSpawned atomic.Int64
	// SpawnWaitNanos accumulates, over spawned shards, the delay between
	// the spawn request and the shard body starting — the pool's
	// scheduling latency ("queue wait").
	SpawnWaitNanos atomic.Int64
	// DynCalls counts ForDynamic invocations that dispatched work.
	DynCalls atomic.Int64
	// DynChunks counts the chunks ForDynamic's workers claimed (Σ
	// ceil(n/chunk) over calls).
	DynChunks atomic.Int64
	// DynWorkers counts worker bodies that drained a ForDynamic cursor
	// (the caller's own body plus any spawned ones).
	DynWorkers atomic.Int64
}

// EnableStats switches on execution accounting for this pool and
// returns the live Stats (idempotent; concurrent callers share one
// instance). A nil pool returns nil.
func (p *Pool) EnableStats() *Stats {
	if p == nil {
		return nil
	}
	if s := p.stats.Load(); s != nil {
		return s
	}
	p.stats.CompareAndSwap(nil, &Stats{})
	return p.stats.Load()
}

// Stats returns the pool's accounting, or nil when EnableStats was
// never called (or the pool is nil).
func (p *Pool) Stats() *Stats {
	if p == nil {
		return nil
	}
	return p.stats.Load()
}

// New returns a pool of the given width. width <= 0 means GOMAXPROCS.
func New(width int) *Pool {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: width, sem: make(chan struct{}, width-1)}
}

// Workers returns the pool's width (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// For partitions [0, n) into at most Workers() contiguous shards and
// calls fn(start, end) on each, using the caller's goroutine plus as
// many pool workers as are free. fn must be safe to run concurrently
// on disjoint shards. For stops dispatching new shards once ctx is
// cancelled (shards already running finish first) and returns ctx.Err
// if the context was cancelled at any point, nil otherwise. A panicking
// shard is returned as a *PanicError instead (see the package doc).
func (p *Pool) For(ctx context.Context, n int, fn func(start, end int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	st := p.Stats()
	if st != nil {
		st.ForCalls.Add(1)
		st.Items.Add(int64(n))
	}
	shards := p.Workers()
	if shards > n {
		shards = n
	}
	if shards == 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if st != nil {
			st.ShardsInline.Add(1)
		}
		if pe := run(fn, 0, n); pe != nil {
			return pe
		}
		return ctx.Err()
	}
	var ps panics
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		if ctx.Err() != nil {
			break
		}
		start, end := s*n/shards, (s+1)*n/shards
		if s == shards-1 {
			// The caller always works the last shard itself.
			if st != nil {
				st.ShardsInline.Add(1)
			}
			ps.run(fn, start, end)
			break
		}
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			var spawned time.Time
			if st != nil {
				st.ShardsSpawned.Add(1)
				spawned = time.Now()
			}
			go func() {
				defer func() { <-p.sem; wg.Done() }()
				if st != nil {
					st.SpawnWaitNanos.Add(time.Since(spawned).Nanoseconds())
				}
				ps.run(fn, start, end)
			}()
		default:
			// Pool saturated (e.g. a nested For): run inline.
			if st != nil {
				st.ShardsInline.Add(1)
			}
			ps.run(fn, start, end)
		}
	}
	wg.Wait()
	return ps.err(ctx)
}

// ForDynamic partitions [0, n) into fixed-size contiguous chunks and
// lets workers claim them through an atomic cursor — work stealing at
// chunk granularity, for loops whose per-index cost is too uneven for
// For's static shards (one slow chunk no longer serializes the tail
// behind the coarsest shard). Like For, it acquires extra workers with
// a non-blocking token grab (saturated nested calls degrade to the
// caller draining every chunk inline, so nesting cannot deadlock) and
// a nil pool runs everything on the caller's goroutine.
//
// Determinism: every index is processed exactly once, by exactly one
// worker, with fn(start, end) covering disjoint ranges — ForDynamic
// performs no reduction, so callers that write per-index results to
// disjoint pre-sized slots and reduce serially afterwards get results
// bit-identical to a serial run at any width, exactly as with For.
// Only the assignment of chunks to workers is scheduling-dependent.
//
// ForDynamic stops claiming new chunks once ctx is cancelled (chunks
// already running finish first) and returns ctx.Err if the context was
// cancelled at any point, nil otherwise. A panicking chunk is returned
// as a *PanicError instead; its worker goes on claiming chunks, so
// every other index is still processed.
func (p *Pool) ForDynamic(ctx context.Context, n, chunk int, fn func(start, end int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if chunk < 1 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	st := p.Stats()
	if st != nil {
		st.DynCalls.Add(1)
		st.Items.Add(int64(n))
		st.DynChunks.Add(int64(nChunks))
	}
	workers := min(p.Workers(), nChunks)
	if workers == 1 {
		// One worker drains the chunks in order on the caller's
		// goroutine: nothing is shared, so nothing escapes to the heap.
		if st != nil {
			st.DynWorkers.Add(1)
		}
		// Chunks run in index order, so the first panic has the lowest
		// start.
		var first *PanicError
		for c := 0; c < nChunks && ctx.Err() == nil; c++ {
			if pe := run(fn, c*chunk, min((c+1)*chunk, n)); pe != nil && first == nil {
				first = pe
			}
		}
		if first != nil {
			return first
		}
		return ctx.Err()
	}
	var cursor atomic.Int64
	var ps panics
	body := func() {
		if st != nil {
			st.DynWorkers.Add(1)
		}
		for ctx.Err() == nil {
			c := int(cursor.Add(1)) - 1
			if c >= nChunks {
				return
			}
			start := c * chunk
			end := start + chunk
			if end > n {
				end = n
			}
			ps.run(fn, start, end)
		}
	}
	var wg sync.WaitGroup
spawn:
	for w := 1; w < workers; w++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			var spawned time.Time
			if st != nil {
				st.ShardsSpawned.Add(1)
				spawned = time.Now()
			}
			go func() {
				defer func() { <-p.sem; wg.Done() }()
				if st != nil {
					st.SpawnWaitNanos.Add(time.Since(spawned).Nanoseconds())
				}
				body()
			}()
		default:
			// Saturated: the caller's own drain loop below covers the
			// remaining chunks.
			break spawn
		}
	}
	body()
	wg.Wait()
	return ps.err(ctx)
}

// ChunkFor sizes a ForDynamic chunk for n items over the given worker
// count: ~8 chunks per worker leaves slack for stealing when per-item
// costs skew, clamped to [1, 32] so a chunk neither degenerates to
// per-index cursor contention nor starves the steal.
func ChunkFor(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	c := (n + 8*workers - 1) / (8 * workers)
	if c < 1 {
		c = 1
	}
	if c > 32 {
		c = 32
	}
	return c
}
