//go:build !race

// Excluded under -race, whose instrumentation may allocate on its own.

package parallel

import (
	"context"
	"testing"
)

var allocSink int

// TestSingleWorkerAllocs checks that a width-1 pool's For and
// ForDynamic run their shards without a heap allocation: the panic
// record of the inline paths lives on the stack.
func TestSingleWorkerAllocs(t *testing.T) {
	p := New(1)
	ctx := context.Background()
	fn := func(start, end int) { allocSink += end - start }
	if got := testing.AllocsPerRun(100, func() { _ = p.For(ctx, 100, fn) }); got != 0 {
		t.Errorf("For: %.1f allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = p.ForDynamic(ctx, 100, 7, fn) }); got != 0 {
		t.Errorf("ForDynamic: %.1f allocs/op, want 0", got)
	}
}
