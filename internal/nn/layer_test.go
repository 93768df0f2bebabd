package nn

import (
	"math"
	"reflect"
	"testing"

	"sre/internal/tensor"
	"sre/internal/xrand"
)

// randomize fills all conv/FC weights of net with small random values.
func randomize(net *Network, seed uint64) {
	r := xrand.New(seed)
	for _, li := range net.MatrixLayerInfos() {
		rr := r.Split(li.Path)
		for i := range weightData(li.Layer) {
			weightData(li.Layer)[i] = float32(rr.NormFloat64() * 0.3)
		}
	}
}

func randomInput(shape Shape, seed uint64) *tensor.Tensor {
	r := xrand.New(seed)
	x := tensor.New(shape...)
	for i := range x.Data() {
		x.Data()[i] = float32(r.NormFloat64())
	}
	return x
}

// TestConvForwardMatchesIm2ColMatVec: the direct convolution loop must
// equal the im2col lowering for every output pixel and channel.
func TestConvForwardMatchesIm2ColMatVec(t *testing.T) {
	r := xrand.New(1)
	for trial := 0; trial < 8; trial++ {
		cin, cout := 1+r.Intn(4), 1+r.Intn(5)
		k := 1 + r.Intn(3)
		h := k + r.Intn(6)
		stride, pad := 1+r.Intn(2), r.Intn(2)
		c := NewConv(cin, cout, k, stride, pad)
		for i := range c.W.Data() {
			c.W.Data()[i] = float32(r.Intn(7) - 3)
		}
		x := tensor.New(cin, h, h)
		for i := range x.Data() {
			x.Data()[i] = float32(r.Intn(9) - 4)
		}
		y := c.Forward(x, nil)
		wm := c.WeightMatrix()
		out := c.OutShape(Shape(x.Shape()))
		buf := make([]float32, cin*k*k)
		for oy := 0; oy < out[1]; oy++ {
			for ox := 0; ox < out[2]; ox++ {
				tensor.Im2ColWindow(x, k, stride, pad, oy, ox, buf)
				ref := tensor.MatVec(wm, buf)
				for co := 0; co < cout; co++ {
					if y.At(co, oy, ox) != ref[co] {
						t.Fatalf("trial %d: conv(%d,%d,ch%d) = %v, want %v",
							trial, oy, ox, co, y.At(co, oy, ox), ref[co])
					}
				}
			}
		}
	}
}

// refWeightMatrix is WeightMatrix written element by element through
// the indexed accessors: row ci·K·K + ky·K + kx, column co.
func refWeightMatrix(c *Conv) *tensor.Tensor {
	m := tensor.New(c.Cin*c.K*c.K, c.Cout)
	for co := 0; co < c.Cout; co++ {
		for ci := 0; ci < c.Cin; ci++ {
			for ky := 0; ky < c.K; ky++ {
				for kx := 0; kx < c.K; kx++ {
					m.Set(c.W.At(co, ci, ky, kx), ci*c.K*c.K+ky*c.K+kx, co)
				}
			}
		}
	}
	return m
}

var sinkTensor *tensor.Tensor

// TestConvWeightMatrixTranspose: the flat-index transpose equals the
// At/Set one on every group of a random grouped conv, and allocates
// nothing beyond its output tensor.
func TestConvWeightMatrixTranspose(t *testing.T) {
	r := xrand.New(3)
	g := NewGroupedConv(6, 8, 3, 1, 1, 2)
	for _, c := range g.Convs {
		for i := range c.W.Data() {
			c.W.Data()[i] = float32(r.NormFloat64())
		}
		got, want := c.WeightMatrix(), refWeightMatrix(c)
		if !reflect.DeepEqual(got.Shape(), want.Shape()) || !reflect.DeepEqual(got.Data(), want.Data()) {
			t.Fatalf("WeightMatrix differs from the At/Set transpose: shape %v vs %v", got.Shape(), want.Shape())
		}
		rows := c.Cin * c.K * c.K
		outAllocs := testing.AllocsPerRun(20, func() { sinkTensor = tensor.New(rows, c.Cout) })
		if a := testing.AllocsPerRun(20, func() { sinkTensor = c.WeightMatrix() }); a != outAllocs {
			t.Fatalf("WeightMatrix allocates %v times per call, want %v (the output tensor only)", a, outAllocs)
		}
	}
}

func TestConvBias(t *testing.T) {
	c := NewConv(1, 2, 1, 1, 0)
	c.B[0], c.B[1] = 1, -2
	x := tensor.New(1, 1, 1)
	y := c.Forward(x, nil)
	if y.At(0, 0, 0) != 1 || y.At(1, 0, 0) != -2 {
		t.Fatal("bias not applied")
	}
}

func TestReLUZeroesNegatives(t *testing.T) {
	x := tensor.New(1, 2, 2)
	x.Set(-1, 0, 0, 0)
	x.Set(2, 0, 0, 1)
	y := ReLU{}.Forward(x, nil)
	if y.At(0, 0, 0) != 0 || y.At(0, 0, 1) != 2 {
		t.Fatal("ReLU wrong")
	}
	if x.At(0, 0, 0) != -1 {
		t.Fatal("ReLU must not mutate its input")
	}
}

func TestMaxPool(t *testing.T) {
	x := tensor.New(1, 4, 4)
	v := float32(0)
	for y := 0; y < 4; y++ {
		for xx := 0; xx < 4; xx++ {
			x.Set(v, 0, y, xx)
			v++
		}
	}
	p := &MaxPool{K: 2, Stride: 2}
	y := p.Forward(x, nil)
	if y.Dim(1) != 2 || y.Dim(2) != 2 {
		t.Fatalf("pool out shape %v", y.Shape())
	}
	if y.At(0, 0, 0) != 5 || y.At(0, 1, 1) != 15 {
		t.Fatal("max pooling values wrong")
	}
}

func TestMaxPoolPaddingKeepsSpatialSize(t *testing.T) {
	p := &MaxPool{K: 3, Stride: 1, Pad: 1}
	out := p.OutShape(Shape{8, 14, 14})
	if out[1] != 14 || out[2] != 14 {
		t.Fatalf("3x3/s1/p1 pool changed spatial dims: %v", out)
	}
	// Negative values: padding must not inject zeros as maxima incorrectly
	// for interior windows; border windows legitimately see only real
	// values (we skip padded cells).
	x := tensor.New(1, 3, 3)
	x.Fill(-5)
	y := p.Forward(x, nil)
	if y.At(0, 1, 1) != -5 {
		t.Fatalf("interior pooled value %v, want -5", y.At(0, 1, 1))
	}
}

func TestAvgPoolGlobal(t *testing.T) {
	x := tensor.New(2, 2, 2)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	g := &AvgPool{}
	y := g.Forward(x, nil)
	if y.Dim(1) != 1 || y.Dim(2) != 1 {
		t.Fatal("gap shape wrong")
	}
	if y.At(0, 0, 0) != 1.5 || y.At(1, 0, 0) != 5.5 {
		t.Fatalf("gap values %v %v", y.At(0, 0, 0), y.At(1, 0, 0))
	}
}

func TestBatchNorm(t *testing.T) {
	b := NewBatchNorm(2)
	b.Scale[1] = 2
	b.Shift[1] = -1
	x := tensor.New(2, 1, 1)
	x.Set(3, 0, 0, 0)
	x.Set(3, 1, 0, 0)
	y := b.Forward(x, nil)
	if y.At(0, 0, 0) != 3 || y.At(1, 0, 0) != 5 {
		t.Fatal("batchnorm affine wrong")
	}
}

func TestFCFlattensAndComputes(t *testing.T) {
	f := NewFC(4, 2)
	for i := 0; i < 4; i++ {
		f.W.Set(float32(i+1), i, 0) // col 0 = [1,2,3,4]
	}
	f.B[1] = 7
	x := tensor.New(1, 2, 2)
	for i := range x.Data() {
		x.Data()[i] = 1
	}
	y := f.Forward(x, nil)
	if y.At(0) != 10 || y.At(1) != 7 {
		t.Fatalf("fc output %v %v", y.At(0), y.At(1))
	}
}

func TestInceptionShapesAndForward(t *testing.T) {
	m := NewInception("3a", 192, 64, 96, 128, 16, 32, 32)
	in := Shape{192, 28, 28}
	out := m.OutShape(in)
	if out[0] != 256 || out[1] != 28 || out[2] != 28 {
		t.Fatalf("inception out shape %v", out)
	}
	// Forward on a small spatial size for speed.
	small := NewInception("t", 3, 2, 2, 3, 1, 2, 1)
	randomizeConvs(small.Convs(), 3)
	x := randomInput(Shape{3, 5, 5}, 4)
	y := small.Forward(x, nil)
	if y.Dim(0) != 8 || y.Dim(1) != 5 || y.Dim(2) != 5 {
		t.Fatalf("inception forward shape %v", y.Shape())
	}
}

func randomizeConvs(cs []*Conv, seed uint64) {
	r := xrand.New(seed)
	for _, c := range cs {
		for i := range c.W.Data() {
			c.W.Data()[i] = float32(r.NormFloat64() * 0.3)
		}
	}
}

func TestResidualIdentityAndProjection(t *testing.T) {
	// Identity shortcut when cin == cout and stride 1.
	r1 := NewResidual(8, 2, 8, 1)
	if r1.Proj != nil {
		t.Fatal("unexpected projection for identity block")
	}
	// Projection when shapes change.
	r2 := NewResidual(8, 4, 16, 2)
	if r2.Proj == nil {
		t.Fatal("missing projection")
	}
	out := r2.OutShape(Shape{8, 14, 14})
	if out[0] != 16 || out[1] != 7 || out[2] != 7 {
		t.Fatalf("residual out shape %v", out)
	}
	// With zero conv weights and identity shortcut, output = relu(x).
	x := randomInput(Shape{8, 6, 6}, 9)
	y := r1.Forward(x, nil)
	for i, v := range x.Data() {
		want := v
		if want < 0 {
			want = 0
		}
		if y.Data()[i] != want {
			t.Fatal("identity residual with zero weights must be relu(x)")
		}
	}
}

func TestResidualOutputNonNegative(t *testing.T) {
	r := NewResidual(4, 2, 8, 1)
	randomizeConvs(r.Convs(), 7)
	x := randomInput(Shape{4, 5, 5}, 8)
	y := r.Forward(x, nil)
	for _, v := range y.Data() {
		if v < 0 {
			t.Fatal("residual output must be post-ReLU non-negative")
		}
	}
}

// TestTraceOrderMatchesEnumeration is the load-bearing invariant: the
// simulator pairs Trace entries with MatrixLayerInfos positionally.
func TestTraceOrderMatchesEnumeration(t *testing.T) {
	topo := "conv3x4p1-pool-inception(t:2,2,3,1,2,1)-[conv1x4-conv3x4-conv1x8]x2-gap-6"
	net, err := Parse("mixed", Shape{2, 8, 8}, topo)
	if err != nil {
		t.Fatal(err)
	}
	randomize(net, 5)
	infos := net.MatrixLayerInfos()
	tr := &Trace{}
	net.Forward(randomInput(net.InShape, 6), tr)
	if len(tr.Layers) != len(infos) {
		t.Fatalf("trace has %d layers, enumeration %d", len(tr.Layers), len(infos))
	}
	for i := range infos {
		if tr.Layers[i] != infos[i].Layer {
			t.Fatalf("position %d: trace layer %s != enumerated %s",
				i, tr.Paths[i], infos[i].Path)
		}
		if !sameShape(tr.Inputs[i].Shape(), infos[i].In) {
			t.Fatalf("position %d (%s): traced input shape %v != enumerated %v",
				i, infos[i].Path, tr.Inputs[i].Shape(), infos[i].In)
		}
	}
}

func sameShape(a []int, b Shape) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWeightSparsityAndCount(t *testing.T) {
	net, err := Parse("tiny", Shape{1, 6, 6}, "conv3x2-4")
	if err != nil {
		t.Fatal(err)
	}
	// conv3x2: 2*1*3*3 = 18 weights; output 4x4x2 = 32; fc 32*4 = 128.
	if got := net.WeightCount(); got != 18+128 {
		t.Fatalf("WeightCount = %d", got)
	}
	if net.WeightSparsity() != 1 {
		t.Fatal("all-zero net must have sparsity 1")
	}
	randomize(net, 2)
	if s := net.WeightSparsity(); s > 0.1 {
		t.Fatalf("randomized sparsity = %v", s)
	}
}

func TestActivationSparsityFromReLU(t *testing.T) {
	// Random weights with zero bias → roughly half the conv outputs are
	// negative → ReLU produces ~50% zeros reaching the next layer.
	net, err := Parse("two", Shape{1, 12, 12}, "conv3x8-conv3x8-10")
	if err != nil {
		t.Fatal(err)
	}
	randomize(net, 11)
	tr := &Trace{}
	net.Forward(randomInput(net.InShape, 12), tr)
	// Trace entry 1 is the second conv's input (post-ReLU).
	sp := tr.Inputs[1].Sparsity()
	if sp < 0.25 || sp > 0.75 {
		t.Fatalf("post-ReLU activation sparsity %v outside plausible band", sp)
	}
}

func TestMACs(t *testing.T) {
	net, err := Parse("m", Shape{1, 6, 6}, "conv3x2-4")
	if err != nil {
		t.Fatal(err)
	}
	infos := net.MatrixLayerInfos()
	if infos[0].MACs() != int64(9*2*16) {
		t.Fatalf("conv MACs = %d", infos[0].MACs())
	}
	if infos[1].MACs() != int64(32*4) {
		t.Fatalf("fc MACs = %d", infos[1].MACs())
	}
}

func TestNumericStabilitySmoke(t *testing.T) {
	net, err := Parse("s", Shape{1, 8, 8}, "conv3x4p1-pool-conv3x4p1-pool-8-4")
	if err != nil {
		t.Fatal(err)
	}
	randomize(net, 20)
	y := net.Forward(randomInput(net.InShape, 21), nil)
	for _, v := range y.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite output")
		}
	}
}

func TestGroupedConvForwardEqualsPerGroupConv(t *testing.T) {
	g := NewGroupedConv(4, 6, 3, 1, 1, 2)
	randomizeConvs(g.Convs, 31)
	x := randomInput(Shape{4, 5, 5}, 32)
	y := g.Forward(x, nil)
	if y.Dim(0) != 6 {
		t.Fatalf("grouped out channels %d", y.Dim(0))
	}
	// Group 1's outputs must equal convolving channels 2..3 alone.
	xa := channelSlice(x, 2, 2)
	ya := g.Convs[1].Forward(xa, nil)
	for co := 0; co < 3; co++ {
		for yy := 0; yy < 5; yy++ {
			for xx := 0; xx < 5; xx++ {
				if y.At(3+co, yy, xx) != ya.At(co, yy, xx) {
					t.Fatal("grouped conv group-1 output mismatch")
				}
			}
		}
	}
}

func TestGroupedConvTraceMatchesEnumeration(t *testing.T) {
	net, err := Parse("g", Shape{4, 8, 8}, "conv3x8g2p1-pool-6")
	if err != nil {
		t.Fatal(err)
	}
	randomize(net, 41)
	infos := net.MatrixLayerInfos()
	if len(infos) != 3 { // 2 conv groups + fc
		t.Fatalf("matrix layers = %d", len(infos))
	}
	if infos[0].Rows != 2*9 || infos[0].Cols != 4 {
		t.Fatalf("group geometry %dx%d", infos[0].Rows, infos[0].Cols)
	}
	tr := &Trace{}
	net.Forward(randomInput(net.InShape, 42), tr)
	if len(tr.Layers) != len(infos) {
		t.Fatalf("trace %d vs infos %d", len(tr.Layers), len(infos))
	}
	for i := range infos {
		if tr.Layers[i] != infos[i].Layer {
			t.Fatalf("position %d: %s vs %s", i, tr.Paths[i], infos[i].Path)
		}
		if !sameShape(tr.Inputs[i].Shape(), infos[i].In) {
			t.Fatalf("position %d shape mismatch", i)
		}
	}
}

func TestGroupedConvParserRejectsBadGroups(t *testing.T) {
	if _, err := Parse("b", Shape{3, 8, 8}, "conv3x8g2-4"); err == nil {
		t.Fatal("3 channels cannot split into 2 groups")
	}
	if _, err := Parse("b", Shape{4, 8, 8}, "conv3x7g2-4"); err == nil {
		t.Fatal("7 filters cannot split into 2 groups")
	}
}
