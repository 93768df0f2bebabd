// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload of the SRE simulator and service from a single process,
// checks every output it times, and prints the workload's metrics by
// name with their units. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Workloads (README.md gives the reasons and the metric definitions):
//
//   - cold-start: Load, WriteTo, OpenSnapshot and the first all-mode
//     sweep of CaffeNet, GoogLeNet and ResNet-50 at defaults;
//   - sweep: warm all-mode passes over GoogLeNet and ResNet-50 with
//     weight slices capped at 2 and every window simulated;
//   - serve: an in-process sreserved driven open loop at two rates. It
//     is not declared in BENCHMARK.json, because its latency spreads too
//     widely between seeds on a small host to bound a regression; its
//     layers are measured by every traced run.
//
// With -trace 0 the workload runs untraced and the end-to-end metrics
// are printed. With -trace 1 a traced run measures every layer the
// three workloads pass through and prints the per-layer metrics, the
// spans' self times and the tracing overhead on the named workload.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash e2ebench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sre"
	"sre/internal/bitset"
)

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
	commit   string
}

var workloads = map[string]func(context.Context, options) (*report, error){
	"cold-start": runColdStart,
	"sweep":      runSweep,
	"serve":      runServe,
}

func main() {
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "cold-start, sweep or serve")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.IntVar(&secs, "seconds", 20, "how long the workload is measured")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer suite instead")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "e2ebench"), "directory for records, traces and scratch files")
	flag.StringVar(&o.commit, "commit", "unknown", "source commit, recorded in the environment stamp")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want cold-start, sweep or serve)", o.workload)
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	env := stamp(o)
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s kernel=%s cpu=%q commit=%s seed=%d workload=%s trace=%t\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Kernel, env.CPU, env.Commit, env.Seed, env.Workload, env.Trace)

	ctx := context.Background()
	steal0, total0, stealOK := cpuSteal()
	var rep *report
	var err error
	if o.trace {
		rep, err = runTraced(ctx, o)
	} else {
		rep, err = fn(ctx, o)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	// The share of CPU time the hypervisor gave to other guests during
	// the run: on a shared host it explains runs that read slow.
	if steal1, total1, ok := cpuSteal(); ok && stealOK && total1 > total0 {
		share := float64(steal1-steal0) / float64(total1-total0)
		rep.detail["cpu_steal_share"] = share
		fmt.Printf("steal %.4f of CPU time went to other guests\n", share)
	}

	var metrics []namedMetric
	if o.trace {
		metrics = rep.perLayer
	} else {
		if err := checkSimRepeat(o, rep); err != nil {
			return err
		}
		metrics, err = endToEnd(rep)
		if err != nil {
			return err
		}
	}
	if err := checkDeclared(o.trace, metrics); err != nil {
		return err
	}

	for _, m := range rep.namedList {
		fmt.Printf("metric %s %s %s\n", m.Name, fmtValue(m.Value), m.Unit)
	}
	for _, m := range metrics {
		fmt.Printf("metric %s %s %s\n", m.Name, fmtValue(m.Value), m.Unit)
	}
	for i, line := range rep.mismatches {
		if i == 20 {
			fmt.Printf("mismatch ... %d more\n", len(rep.mismatches)-20)
			break
		}
		fmt.Println("mismatch", line)
	}

	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	if err := writeRecord(o, env, rep, res); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type namedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// report is what a workload or the traced suite measured.
type report struct {
	attempted, failed int
	mismatches        []string
	setup             []float64 // seconds, one per set-up
	latency           summary   // the workload's unit of work, ms
	throughput        float64   // units of work per second
	peakRSS           float64   // MB, the largest resident set in the timed phase
	sim               simTotals
	namedList         []namedMetric // the workload's own named metrics
	perLayer          []namedMetric // traced runs only
	detail            map[string]any
}

func newReport() *report { return &report{detail: map[string]any{}} }

func (r *report) named(name string, v float64, unit string) {
	r.namedList = append(r.namedList, namedMetric{name, v, unit})
}

func (r *report) layer(name string, v float64, unit string) {
	r.perLayer = append(r.perLayer, namedMetric{name, v, unit})
}

// endToEnd maps a workload's report onto the end-to-end metrics every
// workload reports.
func endToEnd(r *report) ([]namedMetric, error) {
	if r.attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	orcdof, wss, energy, err := r.sim.ratios()
	if err != nil {
		return nil, err
	}
	return []namedMetric{
		{"setup_s", median(r.setup), "s"},
		{"success_ratio", float64(r.attempted-r.failed) / float64(r.attempted), "ratio"},
		{"peak_rss_mb", r.peakRSS, "MB"},
		{"p50_ms", r.latency.P50, "ms"},
		{"tail_ms", r.latency.Tail, "ms"},
		{"throughput_per_s", r.throughput, "1/s"},
		{"sim_speedup_orcdof", orcdof, "x"},
		{"sim_speedup_wss", wss, "x"},
		{"sim_energy_ratio_orcdof", energy, "ratio"},
	}, nil
}

// simTotals sums simulated cycles and energy of the headline modes.
type simTotals struct {
	baseCycles, orcdofCycles, wssCycles int64
	baseJ, orcdofJ                      float64
}

func (s *simTotals) add(rs []sre.Result) {
	for _, r := range rs {
		switch r.Mode {
		case sre.Baseline:
			s.baseCycles += r.Cycles
			s.baseJ += r.Energy.Total()
		case sre.ORCDOF:
			s.orcdofCycles += r.Cycles
			s.orcdofJ += r.Energy.Total()
		case sre.ORCDOFWSS:
			s.wssCycles += r.Cycles
		}
	}
}

// ratios returns Σ baseline ÷ Σ orc+dof cycles, Σ orc+dof ÷ Σ
// orc+dof+wss cycles, and Σ orc+dof ÷ Σ baseline energy.
func (s simTotals) ratios() (speedupORCDOF, speedupWSS, energyRatio float64, err error) {
	if s.baseCycles == 0 || s.orcdofCycles == 0 || s.wssCycles == 0 || s.baseJ == 0 {
		return 0, 0, 0, errors.New("simulated totals miss a headline mode")
	}
	return float64(s.baseCycles) / float64(s.orcdofCycles),
		float64(s.orcdofCycles) / float64(s.wssCycles),
		s.orcdofJ / s.baseJ, nil
}

// withoutMetrics drops the metrics snapshot a metered run attaches, so
// metered and unmetered results compare equal.
func withoutMetrics(rs []sre.Result) []sre.Result {
	out := append([]sre.Result(nil), rs...)
	for i := range out {
		out[i].Metrics = nil
	}
	return out
}

// checkSimRepeat fails the run when its simulated metrics differ from
// an earlier run of the same binary, workload and seed in this
// checkout. The simulator is deterministic, so any difference is a bug.
func checkSimRepeat(o options, rep *report) error {
	orcdof, wss, energy, err := rep.sim.ratios()
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sum, err := fileSHA256(exe)
	if err != nil {
		return err
	}
	got := map[string]string{
		"sim_speedup_orcdof":      fmtValue(orcdof),
		"sim_speedup_wss":         fmtValue(wss),
		"sim_energy_ratio_orcdof": fmtValue(energy),
	}
	path := filepath.Join(o.out, fmt.Sprintf("sim-%s-%s-%d.json", sum[:16], o.workload, o.seed))
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]string
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for k, v := range got {
			if prev[k] != v {
				rep.failed++
				rep.mismatches = append(rep.mismatches,
					fmt.Sprintf("%s = %s, an earlier run with this seed gave %s", k, v, prev[k]))
			}
		}
		return nil
	}
	data, err := json.Marshal(got)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkDeclared compares the metric names a run emits with the ones
// BENCHMARK.json declares, when the file is present in the working
// directory, so the two cannot drift apart.
func checkDeclared(traced bool, metrics []namedMetric) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := decl.EndToEnd
	if traced {
		list = decl.PerLayer
	}
	want := map[string]string{}
	for _, m := range list {
		want[m.Name] = m.Unit
	}
	got := map[string]string{}
	for _, m := range metrics {
		got[m.Name] = m.Unit
	}
	var diffs []string
	for n, u := range want {
		if g, ok := got[n]; !ok {
			diffs = append(diffs, "missing "+n)
		} else if g != u {
			diffs = append(diffs, fmt.Sprintf("%s: unit %s, declared %s", n, g, u))
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			diffs = append(diffs, "undeclared "+n)
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("metrics disagree with BENCHMARK.json: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// envStamp identifies where and how a record was measured.
type envStamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"bitset_kernel"`
	CPU        string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Workload   string  `json:"workload"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
}

func stamp(o options) envStamp {
	return envStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: bitset.Kernel(), CPU: cpuModel(), Commit: o.commit,
		Seed: o.seed, Workload: o.workload, Trace: o.trace, Seconds: o.seconds.Seconds()}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// writeRecord stores the run's full record next to its traces.
func writeRecord(o options, env envStamp, rep *report, res result) error {
	rec := map[string]any{
		"env":        env,
		"result":     res,
		"named":      rep.namedList,
		"per_layer":  rep.perLayer,
		"latency_ms": rep.latency,
		"setup_s":    rep.setup,
		"detail":     rep.detail,
		"mismatches": rep.mismatches,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("record-%s-seed%d-trace%d.json", o.workload, o.seed, btoi(o.trace))
	return os.WriteFile(filepath.Join(o.out, name), data, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
