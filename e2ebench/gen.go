package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"sre/internal/serve"
)

// The generator turns the workload seed into every input the program
// receives: the order of the cold-start and sweep calls, the batch
// probe's activation seeds, and the serve workload's hot set and
// open-loop schedule. It is a pure function of its arguments.

// RNG streams, one per kind of input, so adding draws to one kind never
// shifts another.
const (
	streamCold  = 1
	streamSweep = 2
	streamServe = 3
	streamBatch = 4
)

// defaultSeed is the library's default build seed. The cold-start and
// sweep workloads build the paper's networks at their default design
// point, so every run does the same simulated work and the simulated
// metrics are the same for every workload seed; the seed orders their
// calls instead.
const defaultSeed = 1

// coldOrders returns a generator of the order in which each cold-start
// round visits the cold networks.
func coldOrders(seed uint64) func() []int {
	r := rand.New(rand.NewPCG(seed, streamCold))
	return func() []int { return r.Perm(len(coldNetworks)) }
}

// sweepOrder returns the order in which every pass visits the sweep
// networks.
func sweepOrder(seed uint64) []int {
	return rand.New(rand.NewPCG(seed, streamSweep)).Perm(len(sweepNetworks))
}

// distinctSeeds returns n distinct seeds for stream, none equal to the
// library's default seed 1.
func distinctSeeds(seed, stream uint64, n int) []uint64 {
	r := rand.New(rand.NewPCG(seed, stream))
	seen := map[uint64]bool{1: true}
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := 2 + r.Uint64N(1<<31)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Mode sets a request can name.
var (
	modesAll      = []string{"all"}
	modesHeadline = []string{"baseline", "orc+dof", "orc+dof+wss"}
)

// Cell is one question the service answers: a design point (a Table 2
// network at defaults, or with its build seed replaced), an activation
// seed and a mode set.
type Cell struct {
	Network   string
	BuildSeed uint64 // 0 = the default design point
	ActSeed   uint64 // 0 = the network's own activations
	Modes     []string
	// MaxWindows overrides the run-scoped window-sampling cap (0 = the
	// default 48); it selects no other resident network.
	MaxWindows int
}

func (c Cell) request() serve.SimulateRequest {
	req := serve.SimulateRequest{Network: c.Network, Modes: c.Modes, ActSeed: c.ActSeed}
	if c.BuildSeed != 0 {
		s := c.BuildSeed
		req.Config.Seed = &s
	}
	if c.MaxWindows != 0 {
		mw := c.MaxWindows
		req.Config.MaxWindows = &mw
	}
	return req
}

// Class is the path a request is expected to take through the service.
type Class int

const (
	Hit  Class = iota // a hot cell, answered from the result cache
	Miss              // a fresh act_seed on the resident GoogLeNet: a sweep
	Cold              // a new build-scoped seed: a registry build, then a sweep
)

var classNames = [...]string{"hit", "miss", "cold"}

func (c Class) String() string { return classNames[c] }

// Request mix of the serve workload. Misses sample 8 windows per layer
// instead of the default 48, which makes a miss sweep about a quarter
// as long, so the heavy rate can offer enough requests for a p90 tail
// without overloading a small host.
const (
	missEvery      = 4 // one request in four is a miss
	coldShare      = 0.03
	missMaxWindows = 8
)

// Phase is one fixed-rate stretch of the open-loop schedule.
type Phase struct {
	Name string
	Rate float64 // requests per second
}

// Arrival is one scheduled request.
type Arrival struct {
	Phase int
	Due   time.Duration // since the schedule starts
	Class Class
	Cell  Cell
}

// ServeInputs is everything the serve workload sends.
type ServeInputs struct {
	Hot      []Cell
	Arrivals []Arrival
}

// serveInputs draws the hot set and a schedule that runs each phase for
// phaseLen, back to back. A phase offers exactly rate × phaseLen
// requests at sorted uniform times (a Poisson process conditioned on
// its count) with exactly the mix's share of each class, so seeds
// differ in timing and order but not in the offered load. Every miss carries an act_seed
// and every cold request a build seed that no other request uses.
func serveInputs(seed uint64, phases []Phase, phaseLen time.Duration) ServeInputs {
	r := rand.New(rand.NewPCG(seed, streamServe))
	used := map[uint64]bool{0: true, 1: true}
	fresh := func() uint64 {
		for {
			s := 2 + r.Uint64N(1<<40)
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	// Half the hot cells are large all-mode GoogLeNet answers and half
	// small MNIST and CIFAR-10 ones, so the light phase's median falls
	// in the lower half of the large answers' latency, clear of both
	// the small answers and the hits slowed by a concurrent sweep.
	hot := []Cell{
		{Network: "GoogLeNet", Modes: modesAll},
		{Network: "GoogLeNet", ActSeed: fresh(), Modes: modesAll},
		{Network: "GoogLeNet", ActSeed: fresh(), Modes: modesAll},
		{Network: "MNIST", Modes: modesAll},
		{Network: "MNIST", ActSeed: fresh(), Modes: modesHeadline},
		{Network: "CIFAR-10", Modes: modesAll},
	}
	in := ServeInputs{Hot: hot}
	for pi, ph := range phases {
		n := int(math.Round(ph.Rate * phaseLen.Seconds()))
		due := make([]time.Duration, n)
		for i := range due {
			due[i] = time.Duration(pi)*phaseLen + time.Duration(r.Int64N(int64(phaseLen)))
		}
		sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })

		// Stratified order: every block of four requests holds exactly
		// one miss at a random position, and the cold requests take a
		// random hit slot each, so misses never arrive in long runs by
		// chance and every seed offers the same mix at the same spacing.
		cells := make([]Arrival, n)
		for b := 0; b < n; b += missEvery {
			k := b + r.IntN(min(missEvery, n-b))
			modes := modesAll
			if (b/missEvery)%2 == 1 {
				modes = modesHeadline
			}
			cells[k] = Arrival{Class: Miss, Cell: Cell{Network: "GoogLeNet", ActSeed: fresh(), Modes: modes, MaxWindows: missMaxWindows}}
		}
		nCold := int(math.Round(float64(n) * coldShare))
		for c := 0; c < nCold; {
			k := r.IntN(n)
			if cells[k].Class != Hit {
				continue
			}
			net := "MNIST"
			if c%2 == 1 {
				net = "CIFAR-10"
			}
			cells[k] = Arrival{Class: Cold, Cell: Cell{Network: net, BuildSeed: fresh(), Modes: modesAll}}
			c++
		}
		// The hits spread evenly over the hot cells, in random order.
		var hits []int
		for i := range cells {
			if cells[i].Class == Hit {
				hits = append(hits, i)
			}
		}
		r.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
		for j, k := range hits {
			cells[k].Cell = hot[j%len(hot)]
		}
		for i := range cells {
			cells[i].Phase = pi
			cells[i].Due = due[i]
			in.Arrivals = append(in.Arrivals, cells[i])
		}
	}
	return in
}
