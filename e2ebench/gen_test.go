package main

import (
	"reflect"
	"testing"
	"time"
)

func TestServeInputsDeterministic(t *testing.T) {
	a := serveInputs(7, servePhases, 5*time.Second)
	b := serveInputs(7, servePhases, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different serve inputs")
	}
	c := serveInputs(8, servePhases, 5*time.Second)
	if reflect.DeepEqual(schedule(a), schedule(c)) {
		t.Error("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(mix(a), mix(c)) {
		t.Error("different seeds gave the same request mix")
	}
	if reflect.DeepEqual(actSeeds(a), actSeeds(c)) {
		t.Error("different seeds gave the same act_seed set")
	}
}

func TestServeInputsShape(t *testing.T) {
	in := serveInputs(3, servePhases, 10*time.Second)
	perPhase := make([]int, len(servePhases))
	var classes [3]int
	fresh := map[uint64]bool{}
	for _, a := range in.Arrivals {
		perPhase[a.Phase]++
		classes[a.Class]++
		if a.Due < time.Duration(a.Phase)*10*time.Second || a.Due >= time.Duration(a.Phase+1)*10*time.Second {
			t.Fatalf("arrival due %v outside phase %d", a.Due, a.Phase)
		}
		switch a.Class {
		case Miss:
			if fresh[a.Cell.ActSeed] {
				t.Fatalf("act_seed %d reused by two misses", a.Cell.ActSeed)
			}
			fresh[a.Cell.ActSeed] = true
		case Cold:
			if a.Cell.BuildSeed < 2 {
				t.Fatalf("cold request without a fresh build seed: %+v", a.Cell)
			}
		}
	}
	for i, p := range servePhases {
		if got, want := float64(perPhase[i]), p.Rate*10; got != want {
			t.Errorf("phase %s: %v arrivals, want %v", p.Name, got, want)
		}
	}
	for i := 1; i < len(in.Arrivals); i++ {
		if in.Arrivals[i].Due < in.Arrivals[i-1].Due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
	}
	if classes[Hit] <= classes[Miss] || classes[Miss] == 0 || classes[Cold] == 0 {
		t.Errorf("mix hit/miss/cold = %v, want mostly hits, some misses, a few cold", classes)
	}
}

func TestDistinctSeedsDeterministic(t *testing.T) {
	a := distinctSeeds(5, streamBatch, 8)
	if !reflect.DeepEqual(a, distinctSeeds(5, streamBatch, 8)) {
		t.Fatal("same seed gave different seeds")
	}
	if reflect.DeepEqual(a, distinctSeeds(6, streamBatch, 8)) {
		t.Error("different seeds gave the same seeds")
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if s == 1 || seen[s] {
			t.Fatalf("seeds %v repeat or use the default seed", a)
		}
		seen[s] = true
	}
}

func schedule(in ServeInputs) []time.Duration {
	var out []time.Duration
	for _, a := range in.Arrivals {
		out = append(out, a.Due)
	}
	return out
}

func mix(in ServeInputs) []Class {
	var out []Class
	for _, a := range in.Arrivals {
		out = append(out, a.Class)
	}
	return out
}

func actSeeds(in ServeInputs) []uint64 {
	var out []uint64
	for _, c := range in.Hot {
		out = append(out, c.ActSeed)
	}
	for _, a := range in.Arrivals {
		out = append(out, a.Cell.ActSeed)
	}
	return out
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); p != 90 || v != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:45]); p != 75 || v != 34 {
		t.Errorf("tail of 1..45 = %v at p%v, want 34 at p75", v, p)
	}
	if v, p := tail(xs[:39]); p != 75 || v != 30 {
		t.Errorf("tail of 1..39 = %v at p%v, want 30 at p75", v, p)
	}
	if v, p := tail(xs[:1]); p != 75 || v != 1 {
		t.Errorf("tail of one sample = %v at p%v, want it at p75", v, p)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &Tracer{spans: []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
	}}
	self := tr.SelfMS()
	if got, want := self["parent"], 50e-6; got != want {
		t.Errorf("parent self = %v ms, want %v", got, want)
	}
	if got, want := self["child"], 60e-6; got != want {
		t.Errorf("child self = %v ms, want %v", got, want)
	}
}

func TestCallOrdersDeterministic(t *testing.T) {
	a, b := coldOrders(9), coldOrders(9)
	for i := 0; i < 4; i++ {
		if x, y := a(), b(); !reflect.DeepEqual(x, y) {
			t.Fatalf("round %d: same seed gave orders %v and %v", i, x, y)
		}
	}
	if !reflect.DeepEqual(sweepOrder(9), sweepOrder(9)) {
		t.Fatal("same seed gave different sweep orders")
	}
	differs := false
	for s := uint64(1); s < 20 && !differs; s++ {
		differs = !reflect.DeepEqual(sweepOrder(s), sweepOrder(s+1))
	}
	if !differs {
		t.Error("no two seeds gave different sweep orders")
	}
}
