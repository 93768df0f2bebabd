package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the candidates for a reported tail, highest
// first. The median is not one: a tail is reported beside it.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest candidate percentile (nearest rank) that has
// at least ten samples beyond it, with that percentile. With fewer than
// forty samples no candidate qualifies; tail then returns the p75,
// which a single slow sample moves less than the maximum would, and
// the caller records how many samples it rests on.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		k := int(math.Ceil(p/100*float64(n))) - 1
		if n-1-k >= 10 {
			return s[k], p
		}
	}
	return s[int(math.Ceil(0.75*float64(n)))-1], 75
}

// summary is a latency distribution as the records report it.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
}

func summarize(xs []float64) summary {
	t, p := tail(xs)
	return summary{N: len(xs), P50: median(xs), Tail: t, TailPct: p}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rssSampler tracks the largest resident set seen while it runs, by
// reading VmRSS every 50 ms, so a workload's peak covers its timed
// phase only and not the garbage its set-up left for the collector.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

// startRSS collects the set-up's garbage, then starts sampling. With
// release it also returns the freed memory to the OS, so the peak
// starts from the live heap; without, the memory stays with the Go
// runtime, for workloads whose millisecond requests would otherwise
// pay a varying cost to fault it back in.
func startRSS(release bool) *rssSampler {
	if release {
		debug.FreeOSMemory()
	} else {
		runtime.GC()
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := rssMB()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, rssMB())
			case <-s.stop:
				s.done <- max(peak, rssMB())
				return
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the largest resident set seen, in
// MiB.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	return <-s.done
}

// rssMB reads the process's resident set (VmRSS) in MiB. Where /proc
// is unavailable it falls back to the bytes the Go runtime has obtained
// from the OS.
func rssMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmRSS:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// cpuSteal returns the cumulative steal and total CPU ticks of the
// host as /proc/stat reports them; ok is false where it is absent.
func cpuSteal() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// goCost measures the Go runtime's allocation and GC pause over a span
// of work.
type goCost struct{ before runtime.MemStats }

func startGoCost() *goCost {
	c := &goCost{}
	runtime.ReadMemStats(&c.before)
	return c
}

// stop returns the MiB allocated per operation and the total GC pause
// in milliseconds since start.
func (c *goCost) stop(ops int) (allocMBPerOp, gcPauseMS float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops < 1 {
		ops = 1
	}
	alloc := float64(after.TotalAlloc-c.before.TotalAlloc) / (1 << 20)
	return alloc / float64(ops), float64(after.PauseTotalNs-c.before.PauseTotalNs) / 1e6
}
