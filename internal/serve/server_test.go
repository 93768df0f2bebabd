package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sre"
)

// directMNIST builds MNIST once, directly through the library, as the
// reference the served results must be bit-identical to.
var (
	directOnce sync.Once
	directNet  *sre.Network
	directErr  error
)

func mnistDirect(t *testing.T) *sre.Network {
	t.Helper()
	directOnce.Do(func() { directNet, directErr = sre.Load("MNIST") })
	if directErr != nil {
		t.Fatalf("direct Load(MNIST): %v", directErr)
	}
	return directNet
}

// expect runs mode directly with the given run options; served results
// must DeepEqual this (both sides carry no metrics snapshot).
func expect(t *testing.T, mode sre.Mode, opts ...sre.Option) sre.Result {
	t.Helper()
	res, err := mnistDirect(t).RunContext(context.Background(), mode, opts...)
	if err != nil {
		t.Fatalf("direct Run(%v): %v", mode, err)
	}
	res.Metrics = nil
	return res
}

func postSimulate(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/simulate: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b
}

func decodeSimulate(t *testing.T, b []byte) SimulateResponse {
	t.Helper()
	var out SimulateResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("decode response %s: %v", b, err)
	}
	return out
}

// parsePromErr parses the Prometheus text exposition into name → value,
// reporting the first malformed line.
func parsePromErr(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

func parseProm(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	vals, err := parsePromErr(body)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestServedResultBitIdentical(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, body := postSimulate(t, ts.URL,
		`{"network":"MNIST","modes":["baseline","orc+dof","dof"],"config":{"max_windows":6}}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	resp := decodeSimulate(t, body)
	if resp.Network != "MNIST" || resp.Prune != "ssl" {
		t.Fatalf("echoed identity = %q/%q", resp.Network, resp.Prune)
	}
	if resp.BatchSize < 1 {
		t.Fatalf("batch_size = %d", resp.BatchSize)
	}
	wantModes := []sre.Mode{sre.Baseline, sre.ORCDOF, sre.DOF}
	if len(resp.Results) != len(wantModes) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(wantModes))
	}
	for i, m := range wantModes {
		want := expect(t, m, sre.WithMaxWindows(6))
		if !reflect.DeepEqual(resp.Results[i], want) {
			t.Errorf("mode %v: served result differs from direct RunContext\n got %+v\nwant %+v",
				m, resp.Results[i], want)
		}
	}
}

// TestSimulateWSSRoundTrip proves the version-2 wire surface end to
// end: the wss spellings parse, slice_cap selects its own resident
// design point, and the served result is bit-identical to a direct
// run with the same build options.
func TestSimulateWSSRoundTrip(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, body := postSimulate(t, ts.URL,
		`{"network":"MNIST","modes":["orc+dof","orc+dof+wss"],"config":{"max_windows":6,"slice_cap":2}}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	resp := decodeSimulate(t, body)
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	net, err := sre.Load("MNIST", sre.WithMaxWindows(6), sre.WithSliceCap(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, mode := range []sre.Mode{sre.ORCDOF, sre.ORCDOFWSS} {
		want, err := net.RunContext(context.Background(), mode, sre.WithMaxWindows(6))
		if err != nil {
			t.Fatal(err)
		}
		want.Metrics = nil
		if !reflect.DeepEqual(resp.Results[i], want) {
			t.Errorf("mode %v: served result differs from direct run\n got %+v\nwant %+v",
				mode, resp.Results[i], want)
		}
	}
	if resp.Results[1].Version != 2 {
		t.Fatalf("Result.Version = %d, want 2", resp.Results[1].Version)
	}
	// The capped design point must be resident under its own key.
	found := false
	for _, k := range srv.Registry().Keys() {
		if strings.Contains(k.String(), "slicecap2") {
			found = true
		}
	}
	if !found {
		t.Fatal("slice-capped design point not resident under a slicecap key")
	}
}

// residentSize returns the one resident network's size_bytes from GET
// /v1/networks.
func residentSize(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/networks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var nr NetworksResponse
	if err := json.NewDecoder(resp.Body).Decode(&nr); err != nil {
		t.Fatal(err)
	}
	if len(nr.ResidentDetail) != 1 {
		t.Fatalf("resident_detail = %+v, want one network", nr.ResidentDetail)
	}
	return nr.ResidentDetail[0].SizeBytes
}

// TestSimulateOCCRoundTrip proves "occ" serves as a registry mode: it
// parses on the wire, the served results equal a direct run, and the
// OCC structures the request builds count toward the resident
// network's size_bytes.
func TestSimulateOCCRoundTrip(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Make the design point resident and warm first, so the size
	// comparison sees only what the OCC request adds.
	if status, body := postSimulate(t, ts.URL,
		`{"network":"MNIST","mode":"orc","config":{"max_windows":6}}`); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	before := residentSize(t, ts.URL)

	status, body := postSimulate(t, ts.URL,
		`{"network":"MNIST","modes":["occ","orc"],"config":{"max_windows":6}}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	resp := decodeSimulate(t, body)
	want, err := mnistDirect(t).RunModesContext(context.Background(),
		[]sre.Mode{sre.OCC, sre.ORC}, sre.WithMaxWindows(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i].Metrics = nil
	}
	if !reflect.DeepEqual(resp.Results, want) {
		t.Fatalf("served occ/orc differ from the direct run\n got %+v\nwant %+v", resp.Results, want)
	}
	if after := residentSize(t, ts.URL); after <= before {
		t.Fatalf("size_bytes %d -> %d: the OCC structures are not accounted", before, after)
	}
}

func TestSimulateRequestValidation(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		body string
		want int
	}{
		{`{"network":"NoSuchNet","mode":"orc"}`, http.StatusNotFound},
		{`{"network":"MNIST"}`, http.StatusBadRequest},                            // no modes
		{`{"network":"MNIST","mode":"warp-drive"}`, http.StatusBadRequest},        // bad mode
		{`{"network":"MNIST","mode":"orc","prune":"zap"}`, http.StatusBadRequest}, // bad prune
		{`{"network":"MNIST","mode":"orc","config":{"crossbar":-4}}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if status, body := postSimulate(t, ts.URL, c.body); status != c.want {
			t.Errorf("%s: status %d (want %d): %s", c.body, status, c.want, body)
		}
	}
	// An unknown mode's 400 must name the rejected spelling so clients
	// can tell a typo from a version skew.
	if status, body := postSimulate(t, ts.URL, `{"network":"MNIST","mode":"warp-drive"}`); status != http.StatusBadRequest ||
		!strings.Contains(string(body), "warp-drive") {
		t.Errorf("unknown-mode reject does not name the mode: status %d body %s", status, body)
	}
	// None of the rejects may have built anything.
	if got := srv.Registry().Builds(); got != 0 {
		t.Fatalf("Builds() = %d after validation rejects, want 0", got)
	}
}

// TestSimulateBodyLimits: an oversized body is a 413 and an unknown
// field a 400 that names it; neither builds anything.
func TestSimulateBodyLimits(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	big := `{"network":"MNIST","mode":"orc","prune":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	if status, body := postSimulate(t, ts.URL, big); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d (want 413): %.200s", status, body)
	}
	status, body := postSimulate(t, ts.URL, `{"network":"MNIST","mode":"orc","config":{"max_window":6}}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "max_window") {
		t.Errorf("unknown field: status %d (want 400 naming max_window): %s", status, body)
	}
	status, body = postSimulate(t, ts.URL, `{"network":"MNIST","mode":"orc","act_sed":3}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "act_sed") {
		t.Errorf("unknown top-level field: status %d (want 400 naming act_sed): %s", status, body)
	}
	if got := srv.Registry().Builds(); got != 0 {
		t.Fatalf("Builds() = %d after body rejects, want 0", got)
	}
}

// TestIndexBitsOutOfRange pins the boundary for the request that once
// crashed the daemon: index_bits 70 is a 400 naming the field, decided
// before any network is built.
func TestIndexBitsOutOfRange(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, body := postSimulate(t, ts.URL, `{"network":"MNIST","mode":"orc+dof","config":{"index_bits":70}}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "IndexBits") {
		t.Fatalf("index_bits 70: status %d (want 400 naming IndexBits): %s", status, body)
	}
	if got := srv.Registry().Builds(); got != 0 {
		t.Fatalf("Builds() = %d after the reject, want 0", got)
	}
}

// TestSweepPanicKeepsServing: a request whose sweep panics on the
// worker pool (index_bits 70 reaches the shared network as a run-scoped
// override) fails alone, without a stack in the body, and the same
// resident network answers the next valid request bit-identically.
func TestSweepPanicKeepsServing(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, body := postSimulate(t, ts.URL, `{"network":"MNIST","mode":"orc+dof","config":{"index_bits":70,"max_windows":6}}`)
	if status < 400 || strings.Contains(string(body), "goroutine") {
		t.Fatalf("index_bits 70: status %d, body %.300s; want an error without a stack", status, body)
	}
	status, body = postSimulate(t, ts.URL, `{"network":"MNIST","mode":"orc+dof","config":{"max_windows":6}}`)
	if status != http.StatusOK {
		t.Fatalf("valid request after the failed one: status %d: %s", status, body)
	}
	got := decodeSimulate(t, body).Results[0]
	if want := expect(t, sre.ORCDOF, sre.WithMaxWindows(6)); !reflect.DeepEqual(got, want) {
		t.Fatalf("served result after the failed request diverged:\n got  %+v\n want %+v", got, want)
	}
}

func TestDeadlineExceededDoesNotPoison(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// 1ms is far below CIFAR-10's build cost: the request must time out.
	status, body := postSimulate(t, ts.URL,
		`{"network":"CIFAR-10","mode":"orc+dof","config":{"max_windows":4},"timeout_ms":1}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (want 504): %s", status, body)
	}

	// The same key must now succeed with a sane deadline — the timed-out
	// request neither cached a failure nor wedged the entry.
	status, body = postSimulate(t, ts.URL,
		`{"network":"CIFAR-10","mode":"orc+dof","config":{"max_windows":4},"timeout_ms":60000}`)
	if status != http.StatusOK {
		t.Fatalf("follow-up status %d (want 200): %s", status, body)
	}
	resp := decodeSimulate(t, body)
	if len(resp.Results) != 1 || resp.Results[0].Mode != sre.ORCDOF {
		t.Fatalf("follow-up results = %+v", resp.Results)
	}
	// The abandoned request's build completed and was reused.
	if got := srv.Registry().Builds(); got != 1 {
		t.Fatalf("Builds() = %d, want 1", got)
	}
}

// TestRequestTimeout pins the deadline rule the handler and the
// forwarded hop share, including a timeout_ms too large for a
// time.Duration, which must cap rather than overflow into an
// already-expired deadline.
func TestRequestTimeout(t *testing.T) {
	for _, tc := range []struct {
		millis int64
		want   time.Duration
	}{
		{0, 60 * time.Second},
		{-5, 60 * time.Second},
		{1500, 1500 * time.Millisecond},
		{(10 * time.Minute).Milliseconds(), 5 * time.Minute},
		{math.MaxInt64, 5 * time.Minute},
	} {
		if got := requestTimeout(SimulateRequest{TimeoutMillis: tc.millis}); got != tc.want {
			t.Errorf("timeout_ms %d: deadline %v, want %v", tc.millis, got, tc.want)
		}
	}
}

func TestConcurrentSameKeyBuildsOnce(t *testing.T) {
	srv := NewServer(Options{MaxQueue: 64, MaxSweeps: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	modes := sre.Modes()
	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mode := modes[i%len(modes)]
			status, body := postSimulate(t, ts.URL, fmt.Sprintf(
				`{"network":"MNIST","mode":%q,"config":{"max_windows":6}}`, mode))
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
			}
		}(i)
	}
	wg.Wait()
	if got := srv.Registry().Builds(); got != 1 {
		t.Fatalf("Builds() = %d after %d concurrent same-key requests, want 1", got, clients)
	}

	// /v1/networks reflects the one resident design point.
	resp, err := http.Get(ts.URL + "/v1/networks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var nets NetworksResponse
	if err := json.NewDecoder(resp.Body).Decode(&nets); err != nil {
		t.Fatal(err)
	}
	if nets.Builds != 1 || len(nets.Resident) != 1 {
		t.Fatalf("networks = %+v, want builds 1 / one resident key", nets)
	}
	if !strings.HasPrefix(nets.Resident[0], "MNIST/ssl/") {
		t.Fatalf("resident key = %q", nets.Resident[0])
	}
}

// holdSweeps takes srv's only sweep slot (the server must run with
// MaxSweeps 1), so every sweep that starts blocks until the returned
// func gives the slot back. Tests use it to keep requests in flight
// together without relying on timing.
func holdSweeps(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	if err := srv.batcher.budget.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release = func() { once.Do(srv.batcher.budget.Release) }
	t.Cleanup(release)
	return release
}

// counter reads one of the server's counters.
func counter(srv *Server, name string) int64 {
	return srv.Metrics().Snapshot().Counters[name]
}

// waitCounter polls the named counter until it reaches want.
func waitCounter(t *testing.T, srv *Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for counter(srv, name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, never reached %d", name, counter(srv, name), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// postAsync posts body in the background; the returned channel yields
// the decoded response, after reporting any non-200 as a test error.
func postAsync(t *testing.T, url, body string) <-chan SimulateResponse {
	ch := make(chan SimulateResponse, 1)
	go func() {
		resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Errorf("POST /v1/simulate: %v", err)
			ch <- SimulateResponse{}
			return
		}
		defer resp.Body.Close()
		var out SimulateResponse
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Errorf("%s: status %d: %s", body, resp.StatusCode, b)
		} else if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Errorf("%s: decode: %v", body, err)
		}
		ch <- out
	}()
	return ch
}

// TestIdenticalRequestsShareSweep: a request identical to one still
// sweeping (same design point, act_seed and mode set — here named in
// the other order) joins that sweep instead of starting its own, and
// each rider gets its results in its own mode order.
func TestIdenticalRequestsShareSweep(t *testing.T) {
	srv := NewServer(Options{MaxSweeps: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close) // after holdSweeps' release, so a failed test cannot hang here
	release := holdSweeps(t, srv)

	first := postAsync(t, ts.URL, `{"network":"MNIST","modes":["orc","dof"],"config":{"max_windows":6}}`)
	waitCounter(t, srv, "sre_serve_sweeps_total", 1)
	second := postAsync(t, ts.URL, `{"network":"MNIST","modes":["dof","orc"],"config":{"max_windows":6}}`)
	waitCounter(t, srv, "sre_serve_coalesced_requests_total", 1)
	release()

	orc, dof := expect(t, sre.ORC, sre.WithMaxWindows(6)), expect(t, sre.DOF, sre.WithMaxWindows(6))
	for i, c := range []struct {
		resp <-chan SimulateResponse
		want []sre.Result
	}{{first, []sre.Result{orc, dof}}, {second, []sre.Result{dof, orc}}} {
		resp := <-c.resp
		if resp.BatchSize != 2 || resp.Cached {
			t.Errorf("request %d: batch_size %d cached %v, want 2 false", i, resp.BatchSize, resp.Cached)
		}
		if !reflect.DeepEqual(resp.Results, c.want) {
			t.Errorf("request %d: shared-sweep results differ from direct runs", i)
		}
	}
	vals := parseProm(t, promBody(t, ts.URL))
	if vals["sre_serve_sweeps_total"] != 1 || vals["sre_serve_coalesced_requests_total"] != 1 {
		t.Errorf("sweeps_total %v coalesced %v, want 1 and 1",
			vals["sre_serve_sweeps_total"], vals["sre_serve_coalesced_requests_total"])
	}
	if vals["sre_serve_result_cache_misses_total"] != 2 {
		t.Errorf("result_cache_misses_total = %v, want 2 (one per swept cell, not per rider)",
			vals["sre_serve_result_cache_misses_total"])
	}
}

// TestDifferentModesSweepSeparately: same-key requests in flight
// together, but for different modes, never merge — each sweeps alone.
func TestDifferentModesSweepSeparately(t *testing.T) {
	srv := NewServer(Options{MaxSweeps: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close) // after holdSweeps' release, so a failed test cannot hang here
	release := holdSweeps(t, srv)

	var resps []<-chan SimulateResponse
	for _, mode := range []string{"orc", "dof"} {
		resps = append(resps, postAsync(t, ts.URL, fmt.Sprintf(
			`{"network":"MNIST","mode":%q,"config":{"max_windows":6}}`, mode)))
	}
	waitCounter(t, srv, "sre_serve_sweeps_total", 2)
	release()
	for i, mode := range []sre.Mode{sre.ORC, sre.DOF} {
		resp := <-resps[i]
		if resp.BatchSize != 1 {
			t.Errorf("%v: batch_size = %d, want 1", mode, resp.BatchSize)
		}
		if len(resp.Results) != 1 || !reflect.DeepEqual(resp.Results[0], expect(t, mode, sre.WithMaxWindows(6))) {
			t.Errorf("%v: served result differs from direct RunContext", mode)
		}
	}
	vals := parseProm(t, promBody(t, ts.URL))
	if vals["sre_serve_sweeps_total"] != 2 || vals["sre_serve_coalesced_requests_total"] != 0 {
		t.Errorf("sweeps_total %v coalesced %v, want 2 and 0",
			vals["sre_serve_sweeps_total"], vals["sre_serve_coalesced_requests_total"])
	}
}

// TestSharedSweepSurvivesOneRidersTimeout pins the shared-deadline
// rule: a rider whose deadline expires gets its 504, but the sweep it
// shared keeps running for the rider still waiting. Only when its sole
// rider gives up is a sweep cancelled.
func TestSharedSweepSurvivesOneRidersTimeout(t *testing.T) {
	srv := NewServer(Options{MaxSweeps: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close) // after holdSweeps' release, so a failed test cannot hang here
	release := holdSweeps(t, srv)

	const req = `{"network":"MNIST","mode":"orc+dof","config":{"max_windows":6},"timeout_ms":%d}`
	patient := postAsync(t, ts.URL, fmt.Sprintf(req, 60000))
	waitCounter(t, srv, "sre_serve_sweeps_total", 1)
	if status, body := postSimulate(t, ts.URL, fmt.Sprintf(req, 1)); status != http.StatusGatewayTimeout {
		t.Fatalf("impatient rider: status %d (want 504): %s", status, body)
	}
	if got := counter(srv, "sre_serve_coalesced_requests_total"); got != 1 {
		t.Fatalf("coalesced = %d: the impatient request did not ride the running sweep", got)
	}
	release()
	resp := <-patient
	if len(resp.Results) != 1 || !reflect.DeepEqual(resp.Results[0], expect(t, sre.ORCDOF, sre.WithMaxWindows(6))) {
		t.Fatalf("patient rider: results %+v differ from direct RunContext", resp.Results)
	}
	if got := counter(srv, "sre_serve_sweep_cancels_total"); got != 0 {
		t.Fatalf("sweep_cancels_total = %d after one of two riders timed out, want 0", got)
	}

	// A sole rider's timeout does cancel its sweep.
	holdSweeps(t, srv)
	if status, body := postSimulate(t, ts.URL,
		`{"network":"MNIST","mode":"dof","config":{"max_windows":6},"timeout_ms":1}`); status != http.StatusGatewayTimeout {
		t.Fatalf("sole rider: status %d (want 504): %s", status, body)
	}
	if got := counter(srv, "sre_serve_sweep_cancels_total"); got != 1 {
		t.Fatalf("sweep_cancels_total = %d after the sole rider timed out, want 1", got)
	}
}

func TestLoadBitIdenticalAndMetricsMidLoad(t *testing.T) {
	srv := NewServer(Options{MaxQueue: 64, MaxSweeps: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	modes := sre.Modes()
	want := map[sre.Mode]sre.Result{}
	for _, m := range modes {
		want[m] = expect(t, m, sre.WithMaxWindows(6))
	}

	const clients = 32
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		// Scrape /metrics continuously while the load runs; every body
		// must parse as well-formed Prometheus text.
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Errorf("mid-load /metrics: %v", err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if _, err := parsePromErr(b); err != nil {
				t.Errorf("mid-load /metrics: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mode := modes[i%len(modes)]
			status, body := postSimulate(t, ts.URL, fmt.Sprintf(
				`{"network":"MNIST","mode":%q,"config":{"max_windows":6}}`, mode))
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
				return
			}
			resp := decodeSimulate(t, body)
			if len(resp.Results) != 1 {
				t.Errorf("client %d: %d results", i, len(resp.Results))
				return
			}
			if !reflect.DeepEqual(resp.Results[0], want[mode]) {
				t.Errorf("client %d mode %v: served result differs from direct RunContext", i, mode)
			}
		}(i)
	}
	wg.Wait()
	close(stopScrape)
	<-scrapeDone

	if got := srv.Registry().Builds(); got != 1 {
		t.Fatalf("Builds() = %d, want 1", got)
	}
	// The registry aggregated request-side counters under load.
	vals := parseProm(t, promBody(t, ts.URL))
	if vals["sre_serve_requests_total"] < clients {
		t.Errorf("sre_serve_requests_total = %v, want >= %d", vals["sre_serve_requests_total"], clients)
	}
}

func promBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDrainFinishesInflightThenRejects(t *testing.T) {
	srv := NewServer(Options{MaxQueue: 64, MaxSweeps: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	want := expect(t, sre.ORC, sre.WithMaxWindows(12))

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postSimulate(t, ts.URL,
				`{"network":"MNIST","mode":"orc","config":{"max_windows":12}}`)
			if status != http.StatusOK {
				t.Errorf("in-flight client %d: status %d: %s", i, status, body)
				return
			}
			resp := decodeSimulate(t, body)
			if len(resp.Results) != 1 || !reflect.DeepEqual(resp.Results[0], want) {
				t.Errorf("in-flight client %d: result differs from direct RunContext", i)
			}
		}(i)
	}

	// Wait until the burst is admitted (the cold build holds every
	// request in flight), then drain under it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.gate.Inflight() < clients && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait() // every admitted request completed with a full 200 response

	// Post-drain requests bounce with 503, not a connection error.
	status, body := postSimulate(t, ts.URL, `{"network":"MNIST","mode":"orc"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d (want 503): %s", status, body)
	}
	if !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("post-drain body %s", body)
	}
}

func TestHealthz(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(b)) != "ok" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, b)
	}
}

// TestDistinctActSeedsSweepSeparately: requests in flight together
// that differ only in act_seed each run their own sweep, and each
// response is bit-identical to a one-set direct RunBatchContext with
// that seed — for the act_seed 0 requester too.
func TestDistinctActSeedsSweepSeparately(t *testing.T) {
	srv := NewServer(Options{MaxSweeps: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close) // after holdSweeps' release, so a failed test cannot hang here
	release := holdSweeps(t, srv)

	modes := []sre.Mode{sre.DOF, sre.ORCDOF, sre.Baseline}
	seeds := []uint64{0, 41, 42}
	var resps []<-chan SimulateResponse
	for _, seed := range seeds {
		resps = append(resps, postAsync(t, ts.URL, fmt.Sprintf(
			`{"network":"MNIST","modes":["dof","orc+dof","baseline"],"config":{"max_windows":6},"act_seed":%d}`, seed)))
	}
	waitCounter(t, srv, "sre_serve_sweeps_total", int64(len(seeds)))
	release()

	var first []sre.Result
	for i, seed := range seeds {
		grid, err := mnistDirect(t).RunBatchContext(context.Background(), modes,
			[]sre.ActivationSet{{ActSeed: seed}}, sre.WithMaxWindows(6))
		if err != nil {
			t.Fatal(err)
		}
		for j := range grid[0] {
			grid[0][j].Metrics = nil
		}
		resp := <-resps[i]
		if resp.BatchSize != 1 {
			t.Errorf("seed %d: batch_size = %d, want 1", seed, resp.BatchSize)
		}
		if !reflect.DeepEqual(resp.Results, grid[0]) {
			t.Errorf("seed %d: served results differ from a direct one-set RunBatchContext", seed)
		}
		if i == 0 {
			first = resp.Results
		} else if reflect.DeepEqual(resp.Results, first) {
			t.Errorf("act_seed %d had no effect on the served results", seed)
		}
	}
	vals := parseProm(t, promBody(t, ts.URL))
	if vals["sre_serve_sweeps_total"] != float64(len(seeds)) || vals["sre_serve_coalesced_requests_total"] != 0 {
		t.Errorf("sweeps_total %v coalesced %v, want %d and 0",
			vals["sre_serve_sweeps_total"], vals["sre_serve_coalesced_requests_total"], len(seeds))
	}
}
