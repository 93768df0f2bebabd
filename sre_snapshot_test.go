package sre

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeSnapshot serializes net to a file in dir and returns the path.
func writeSnapshot(t *testing.T, dir string, net *Network) string {
	t.Helper()
	path := filepath.Join(dir, "net.sresnap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// sameResult compares the simulation-visible surface of two results.
func sameResult(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Cycles != b.Cycles || a.Seconds != b.Seconds || a.Energy != b.Energy ||
		a.CompressionRatio != b.CompressionRatio || a.IndexStorageBits != b.IndexStorageBits {
		t.Fatalf("%s: results diverged:\n fresh %+v\n snap  %+v", label, a, b)
	}
	if len(a.Layers) != len(b.Layers) {
		t.Fatalf("%s: layer counts diverged", label)
	}
	for i := range a.Layers {
		if a.Layers[i] != b.Layers[i] {
			t.Fatalf("%s: layer %d diverged:\n fresh %+v\n snap  %+v",
				label, i, a.Layers[i], b.Layers[i])
		}
	}
}

// TestSnapshotGoldenAllModes is the golden bit-identity test: a
// snapshot-loaded network must produce results identical to the fresh
// build it was written from, in every mode, under both prune styles.
func TestSnapshotGoldenAllModes(t *testing.T) {
	for _, style := range []PruneStyle{SSL, GSL} {
		fresh, err := Load("MNIST", WithConfig(testConfig()), WithPrune(style))
		if err != nil {
			t.Fatal(err)
		}
		path := writeSnapshot(t, t.TempDir(), fresh)
		// MaxWindows is run-scoped (the opener's choice, not part of the
		// snapshot's build point) — pin it to the fresh network's value
		// so the runs compare window for window.
		loaded, err := OpenSnapshot(path, WithMaxWindows(testConfig().MaxWindows))
		if err != nil {
			t.Fatal(err)
		}
		if !loaded.SnapshotLoaded() {
			t.Fatal("OpenSnapshot network does not report SnapshotLoaded")
		}
		if loaded.Name() != fresh.Name() || loaded.LayerCount() != fresh.LayerCount() {
			t.Fatalf("identity diverged: %s/%d vs %s/%d",
				loaded.Name(), loaded.LayerCount(), fresh.Name(), fresh.LayerCount())
		}
		for _, mode := range Modes() {
			want, err := fresh.Run(mode)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Run(mode)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, style.String()+"/"+mode.String(), want, got)
		}
		// OCC rebuilds its structures from the persisted spec — it must
		// agree too.
		wantOCC, err := fresh.RunContext(context.Background(), OCC)
		if err != nil {
			t.Fatal(err)
		}
		gotOCC, err := loaded.RunContext(context.Background(), OCC)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, style.String()+"/occ", wantOCC, gotOCC)
	}
}

// TestWithSnapshotDir proves Load's snapshot-dir protocol: first call
// builds and persists (a miss), second call loads (a hit), and both
// simulate identically.
func TestWithSnapshotDir(t *testing.T) {
	dir := t.TempDir()
	cold, err := Load("MNIST", WithConfig(testConfig()), WithSnapshotDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if cold.SnapshotLoaded() {
		t.Fatal("first load reported a snapshot hit in an empty dir")
	}
	warm, err := Load("MNIST", WithConfig(testConfig()), WithSnapshotDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.SnapshotLoaded() {
		t.Fatal("second load did not hit the snapshot")
	}
	a, err := cold.Run(ORCDOF)
	if err != nil {
		t.Fatal(err)
	}
	b, err := warm.Run(ORCDOF)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "dir hit", a, b)
	// A different build point must not collide with the cached file.
	other, err := Load("MNIST", WithConfig(testConfig()), WithSnapshotDir(dir), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if other.SnapshotLoaded() {
		t.Fatal("different seed hit the other seed's snapshot")
	}
}

// TestOpenSnapshotOptionBoundary proves run-scoped options are honored
// and build-scoped options rejected, mirroring the run-option contract.
func TestOpenSnapshotOptionBoundary(t *testing.T) {
	net, err := Load("MNIST", WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	path := writeSnapshot(t, t.TempDir(), net)
	if _, err := OpenSnapshot(path, WithWorkers(2), WithMaxWindows(6)); err != nil {
		t.Fatalf("run-scoped options rejected: %v", err)
	}
	for name, opt := range map[string]Option{
		"seed":     WithSeed(99),
		"ou":       WithOU(32),
		"crossbar": WithCrossbar(64),
		"cellbits": WithCellBits(4),
		"prune":    WithPrune(GSL),
		"slicecap": WithSliceCap(2),
		"sparsity": WithSparsity(0.9, 0.9),
	} {
		if _, err := OpenSnapshot(path, opt); err == nil {
			t.Fatalf("build-scoped option %q accepted", name)
		}
	}
}

// TestOpenSnapshotNamedErrors proves decode failures surface as the
// package's named errors through the public entry point.
func TestOpenSnapshotNamedErrors(t *testing.T) {
	net, err := Load("MNIST", WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	path := writeSnapshot(t, t.TempDir(), net)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-9] }, ErrSnapshotCorrupt},
		{"version", func(b []byte) []byte { b[8] = 42; return b }, ErrSnapshotVersion},
		{"hash", func(b []byte) []byte { b[41] ^= 0x10; return b }, ErrSnapshotHash},
	}
	for _, tc := range cases {
		bad := tc.mutate(append([]byte(nil), img...))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSnapshot(path); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
	}
}

// TestBuildInputShapeValidation is the API-boundary table test: every
// malformed [channels, height, width] shape must be rejected with
// ErrInvalidShape before it reaches the workload builder.
func TestBuildInputShapeValidation(t *testing.T) {
	cases := []struct {
		name  string
		shape []int
		ok    bool
	}{
		{"nil", nil, false},
		{"empty", []int{}, false},
		{"too few dims", []int{3, 5}, false},
		{"too many dims", []int{3, 5, 5, 1}, false},
		{"zero dim", []int{3, 0, 0}, false},
		{"negative dim", []int{3, -5, 5}, false},
		{"valid", []int{1, 8, 8}, true},
	}
	for _, tc := range cases {
		_, err := Build("t", "conv3x2-4", tc.shape, WithConfig(testConfig()))
		if tc.ok {
			if err != nil {
				t.Fatalf("%s: rejected valid shape: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrInvalidShape) {
			t.Fatalf("%s (%v): got %v, want errors.Is(ErrInvalidShape)", tc.name, tc.shape, err)
		}
	}
}

// buildDigests pins the SHA-256 of WriteTo for the small Table-2
// networks under both prune styles, with and without a slice cap. The
// digests were recorded when Load still built its layers one after
// another; building them on the worker pool must not move a byte.
var buildDigests = []struct {
	network  string
	prune    PruneStyle
	sliceCap int
	sha256   string
}{
	{"MNIST", SSL, 0, "201b5730293c01c322d762f093afb041c4a47bd8f74464b4d34e870efb412d8f"},
	{"MNIST", SSL, 2, "854d234795112f54ac7a50203bdf8729ef1c4ef0139a84ffe5f5be0376b23dbd"},
	{"MNIST", GSL, 0, "009133530ef863dd39671a11b4e3f3bdc3497ee413f5af329e7a0f51c3ef6a27"},
	{"MNIST", GSL, 2, "85cf162dfed51e1737665f955b151372101e73902d4095d3a7dd09c2b8913a6b"},
	{"CIFAR-10", SSL, 0, "9d217086af40d9bbfb0abf23d427f63d11982560cdf9f455b63faf19822014e2"},
	{"CIFAR-10", SSL, 2, "e2afaafec0f061326e19ce7d2d17b8d56fc04a4572e5179256372c2e29a9a8aa"},
	{"CIFAR-10", GSL, 0, "96fcd80b05b62e8c98a480833fde8c2f8f4524e12358995d8cd945dea4ffb98d"},
	{"CIFAR-10", GSL, 2, "afeaa7c9abf260271cb6204594cb598d951a2348e7642eda437dd50d22e0eb40"},
}

// TestBuildBytesPinnedAcrossWidths asserts the pinned snapshot digests
// at several worker-pool widths: the layer-parallel build is
// bit-identical to the serial one.
func TestBuildBytesPinnedAcrossWidths(t *testing.T) {
	for _, c := range buildDigests {
		for _, workers := range []int{1, 2, 8} {
			net, err := Load(c.network, WithPrune(c.prune), WithSliceCap(c.sliceCap), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if _, err := net.WriteTo(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.sha256 {
				t.Errorf("%s prune %v slice cap %d at %d workers: WriteTo sha256 %s, want %s",
					c.network, c.prune, c.sliceCap, workers, got, c.sha256)
			}
		}
	}
}
