package parallel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8, 64} {
		p := New(width)
		for _, n := range []int{0, 1, 2, 7, 100} {
			hits := make([]int32, n)
			err := p.For(context.Background(), n, func(start, end int) {
				for i := start; i < end; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			if err != nil {
				t.Fatalf("width %d n %d: %v", width, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("width %d n %d: index %d hit %d times", width, n, i, h)
				}
			}
		}
	}
}

func TestForShardsAreContiguous(t *testing.T) {
	p := New(4)
	var got atomic.Int64
	err := p.For(context.Background(), 10, func(start, end int) {
		if end <= start {
			t.Errorf("empty shard [%d,%d)", start, end)
		}
		for i := start; i < end; i++ {
			got.Add(int64(i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Load() != 45 {
		t.Fatalf("sum of indexes = %d, want 45", got.Load())
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	p := New(4)
	var count atomic.Int64
	err := p.For(context.Background(), 8, func(start, end int) {
		for i := start; i < end; i++ {
			if err := p.For(context.Background(), 16, func(s, e int) {
				count.Add(int64(e - s))
			}); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 8*16 {
		t.Fatalf("inner iterations = %d, want %d", count.Load(), 8*16)
	}
}

func TestForCancelledContext(t *testing.T) {
	p := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := p.For(ctx, 100, func(start, end int) { ran = true }); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("dispatched a shard on a cancelled context")
	}
}

func TestForCancelDuringRun(t *testing.T) {
	p := New(1) // serial: cancellation observed after the single shard
	ctx, cancel := context.WithCancel(context.Background())
	err := p.For(ctx, 4, func(start, end int) { cancel() })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool width %d", p.Workers())
	}
	sum := 0
	if err := p.For(context.Background(), 5, func(start, end int) {
		for i := start; i < end; i++ {
			sum += i
		}
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 10 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestForDynamicCoversEveryIndexOnce(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8, 64} {
		p := New(width)
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			for _, chunk := range []int{0, 1, 3, 7, 64, 5000} {
				hits := make([]int32, n)
				err := p.ForDynamic(context.Background(), n, chunk, func(start, end int) {
					for i := start; i < end; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				if err != nil {
					t.Fatalf("width %d n %d chunk %d: %v", width, n, chunk, err)
				}
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("width %d n %d chunk %d: index %d hit %d times", width, n, chunk, i, h)
					}
				}
			}
		}
	}
}

// TestForDynamicDeterministicWrites pins the determinism contract:
// per-index results written to disjoint slots are identical at every
// width and chunk size, because each index is claimed exactly once.
func TestForDynamicDeterministicWrites(t *testing.T) {
	const n = 500
	want := make([]int64, n)
	for i := range want {
		want[i] = int64(i) * int64(i)
	}
	for _, width := range []int{1, 4, 16} {
		for _, chunk := range []int{1, 3, 7, 50} {
			p := New(width)
			got := make([]int64, n)
			if err := p.ForDynamic(context.Background(), n, chunk, func(start, end int) {
				for i := start; i < end; i++ {
					got[i] = int64(i) * int64(i)
				}
			}); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("width %d chunk %d: slot %d = %d, want %d", width, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

func TestForDynamicNestedDoesNotDeadlock(t *testing.T) {
	p := New(2)
	var total atomic.Int64
	err := p.For(context.Background(), 4, func(start, end int) {
		for i := start; i < end; i++ {
			if err := p.ForDynamic(context.Background(), 100, 8, func(s, e int) {
				total.Add(int64(e - s))
			}); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 400 {
		t.Fatalf("nested dynamic loops covered %d items, want 400", total.Load())
	}
}

func TestForDynamicCancellation(t *testing.T) {
	p := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.ForDynamic(ctx, 100, 4, func(start, end int) {
		t.Error("chunk ran after cancellation")
	}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	var ran atomic.Int64
	err := p.ForDynamic(ctx, 10000, 1, func(start, end int) {
		if ran.Add(1) == 3 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if ran.Load() >= 10000 {
		t.Fatal("cancellation did not stop chunk claiming")
	}
}

func TestForDynamicNilPool(t *testing.T) {
	var p *Pool
	sum := 0
	if err := p.ForDynamic(context.Background(), 10, 3, func(start, end int) {
		for i := start; i < end; i++ {
			sum += i
		}
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 45 {
		t.Fatalf("nil-pool sum = %d, want 45", sum)
	}
}

func TestForDynamicStats(t *testing.T) {
	p := New(4)
	st := p.EnableStats()
	if err := p.ForDynamic(context.Background(), 100, 8, func(start, end int) {}); err != nil {
		t.Fatal(err)
	}
	if st.DynCalls.Load() != 1 {
		t.Fatalf("DynCalls = %d, want 1", st.DynCalls.Load())
	}
	if st.DynChunks.Load() != 13 { // ceil(100/8)
		t.Fatalf("DynChunks = %d, want 13", st.DynChunks.Load())
	}
	if w := st.DynWorkers.Load(); w < 1 || w > 4 {
		t.Fatalf("DynWorkers = %d, want 1..4", w)
	}
	if st.Items.Load() != 100 {
		t.Fatalf("Items = %d, want 100", st.Items.Load())
	}
}

// checkPanicked asserts err is the recovered panic of the index-5 item,
// that every index outside its shard ran exactly once, and that the
// pool got every token back.
func checkPanicked(t *testing.T, p *Pool, err error, hits []int32) {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if pe.Value != "boom" || pe.Start > 5 || pe.End <= 5 {
		t.Fatalf("PanicError{%d, %d, %v}, want the shard holding index 5 and value boom", pe.Start, pe.End, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "parallel_test.go") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error does not carry the panic site:\n%v", err)
	}
	for i, h := range hits {
		if i >= pe.Start && i < pe.End {
			continue
		}
		if h != 1 {
			t.Fatalf("index %d outside the panicking shard ran %d times", i, h)
		}
	}
	if p != nil && len(p.sem) != 0 {
		t.Fatalf("%d worker tokens still held after the call", len(p.sem))
	}
}

// panicAt5 marks each index it visits and panics on index 5.
func panicAt5(hits []int32) func(start, end int) {
	return func(start, end int) {
		for i := start; i < end; i++ {
			if i == 5 {
				panic("boom")
			}
			atomic.AddInt32(&hits[i], 1)
		}
	}
}

func TestForRecoversShardPanic(t *testing.T) {
	for _, p := range []*Pool{nil, New(1), New(2), New(4), New(8)} {
		hits := make([]int32, 16)
		checkPanicked(t, p, p.For(context.Background(), len(hits), panicAt5(hits)), hits)
		// The pool is reusable: a clean call covers everything.
		hits = make([]int32, 16)
		if err := p.For(context.Background(), len(hits), func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		}); err != nil {
			t.Fatalf("width %d: reuse after a panic: %v", p.Workers(), err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("width %d: reuse after a panic: index %d ran %d times", p.Workers(), i, h)
			}
		}
	}
}

func TestForDynamicRecoversChunkPanic(t *testing.T) {
	for _, p := range []*Pool{nil, New(1), New(2), New(4), New(8)} {
		hits := make([]int32, 64)
		err := p.ForDynamic(context.Background(), len(hits), 1, panicAt5(hits))
		checkPanicked(t, p, err, hits)
		if pe := err.(*PanicError); pe.Start != 5 || pe.End != 6 {
			t.Fatalf("width %d: panicking chunk [%d, %d), want [5, 6)", p.Workers(), pe.Start, pe.End)
		}
		var n atomic.Int64
		if err := p.ForDynamic(context.Background(), 100, 3, func(start, end int) {
			n.Add(int64(end - start))
		}); err != nil || n.Load() != 100 {
			t.Fatalf("width %d: reuse after a panic: err %v, covered %d of 100", p.Workers(), err, n.Load())
		}
	}
}

// TestPanicErrorDeterministic pins which panic wins when several shards
// panic: the lowest start, whatever the scheduling.
func TestPanicErrorDeterministic(t *testing.T) {
	for _, width := range []int{1, 2, 8} {
		p := New(width)
		err := p.For(context.Background(), 8, func(start, end int) { panic("boom") })
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Start != 0 {
			t.Fatalf("width %d: err = %v, want the shard starting at 0", width, err)
		}
		err = p.ForDynamic(context.Background(), 8, 1, func(start, end int) { panic("boom") })
		if !errors.As(err, &pe) || pe.Start != 0 {
			t.Fatalf("width %d: ForDynamic err = %v, want the chunk starting at 0", width, err)
		}
	}
}
