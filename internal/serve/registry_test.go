package serve

import (
	"context"
	"sync"
	"testing"

	"sre"
	"sre/internal/metrics"
)

func TestRegistrySingleflight(t *testing.T) {
	r := NewRegistry()
	key := KeyFor("MNIST", sre.SSL, sre.DefaultConfig())
	// The string form decides ring ownership across replicas, so it is
	// pinned exactly; run-scoped fields must not fork the key.
	const want = "MNIST/ssl/xbar128/ou16x16/w16a16/cell2/dac1/seed1"
	if got := key.String(); got != want {
		t.Fatalf("default key = %q, want %q", got, want)
	}
	cfg := sre.DefaultConfig()
	cfg.MaxWindows, cfg.IndexBits, cfg.Workers = 6, 4, 3
	if KeyFor("MNIST", sre.SSL, cfg) != key {
		t.Fatalf("run-scoped fields forked the key: %+v", KeyFor("MNIST", sre.SSL, cfg))
	}
	cfg.SliceCap = 2
	if got := KeyFor("MNIST", sre.SSL, cfg).String(); got != want+"/slicecap2" {
		t.Fatalf("capped key = %q, want %q", got, want+"/slicecap2")
	}

	const callers = 16
	nets := make([]*sre.Network, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, release, err := r.Get(context.Background(), key)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			} else {
				release()
			}
			nets[i] = n
		}(i)
	}
	wg.Wait()
	if got := r.Builds(); got != 1 {
		t.Fatalf("Builds() = %d after %d concurrent same-key Gets, want 1", got, callers)
	}
	for i := 1; i < callers; i++ {
		if nets[i] != nets[0] {
			t.Fatalf("caller %d got a distinct instance", i)
		}
	}
	keys := r.Keys()
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys() = %v, want [%v]", keys, key)
	}
}

func TestRegistryFailedBuildNotCached(t *testing.T) {
	r := NewRegistry()
	key := KeyFor("no-such-network", sre.SSL, sre.DefaultConfig())

	if _, _, err := r.Get(context.Background(), key); err == nil {
		t.Fatal("Get(bogus) succeeded")
	}
	if got := r.Builds(); got != 1 {
		t.Fatalf("Builds() = %d, want 1", got)
	}
	// The failed entry must be dropped, so the next Get retries the
	// build rather than replaying a cached error.
	if _, _, err := r.Get(context.Background(), key); err == nil {
		t.Fatal("second Get(bogus) succeeded")
	}
	if got := r.Builds(); got != 2 {
		t.Fatalf("Builds() = %d after retry, want 2 (failed build was cached)", got)
	}
	if keys := r.Keys(); len(keys) != 0 {
		t.Fatalf("Keys() = %v, want empty", keys)
	}
}

func TestRegistryAbandonedWaiter(t *testing.T) {
	r := NewRegistry()
	key := KeyFor("MNIST", sre.SSL, sre.DefaultConfig())

	// A waiter whose context is already cancelled gets ctx.Err() even
	// while the build (driven by a healthy caller) completes.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, release, err := r.Get(context.Background(), key); err != nil {
			t.Errorf("builder: %v", err)
		} else {
			release()
		}
	}()
	// This Get either started the detached build or joined it; either
	// way its dead context means it sees context.Canceled — or, if the
	// build won the race, the built network.
	if _, release, err := r.Get(cancelled, key); err != nil && err != context.Canceled {
		t.Fatalf("abandoned Get: %v", err)
	} else if err == nil {
		release()
	}
	wg.Wait()
	// Whichever interleaving happened, the entry must be healthy now.
	if _, release, err := r.Get(context.Background(), key); err != nil {
		t.Fatalf("post-abandon Get: %v", err)
	} else {
		release()
	}
	if got := r.Builds(); got > 2 {
		t.Fatalf("Builds() = %d, want at most 2", got)
	}
}

// TestRegistrySnapshots proves the snapshot-dir path: a registry with
// UseSnapshots persists on the first cold key, a fresh registry
// sharing the directory loads instead of rebuilding, and the hit/miss
// counters record exactly that — all still under singleflight.
func TestRegistrySnapshots(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	shard := reg.Shard()
	hits := shard.Counter("hits")
	misses := shard.Counter("misses")
	key := KeyFor("MNIST", sre.SSL, sre.DefaultConfig())

	r1 := NewRegistry()
	r1.UseSnapshots(dir, hits, misses)
	n1, release1, err := r1.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	release1()
	if n1.SnapshotLoaded() {
		t.Fatal("cold empty-dir Get reported a snapshot hit")
	}

	// A second process sharing the directory: must load, not build.
	r2 := NewRegistry()
	r2.UseSnapshots(dir, hits, misses)
	const callers = 8
	nets := make([]*sre.Network, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, release, err := r2.Get(context.Background(), key)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			} else {
				release()
			}
			nets[i] = n
		}(i)
	}
	wg.Wait()
	if !nets[0].SnapshotLoaded() {
		t.Fatal("warm-dir Get did not load from the snapshot")
	}
	if got := r2.Builds(); got != 1 {
		t.Fatalf("snapshot dir broke singleflight: %d loads", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["hits"]; got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if got := snap.Counters["misses"]; got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
}
